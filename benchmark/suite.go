package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"lpmem"
	"lpmem/internal/core"
	"lpmem/internal/noc"
	"lpmem/internal/regress"
	"lpmem/internal/runner"
	"lpmem/internal/stats"
	"lpmem/internal/testcomp"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// suite regenerates every table the way a paper reproducer does.
type suite struct {
	exps    []lpmem.Experiment
	goldens map[string]regress.Snapshot
	eng     *lpmem.Engine
}

// newSuite is the suite workload's set-up: the registry, its goldens and
// a 1-worker, cache-disabled engine.
func newSuite(goldenDir string) (*suite, error) {
	goldens, err := loadGoldens(goldenDir)
	if err != nil {
		return nil, err
	}
	return &suite{
		exps:    lpmem.Experiments(),
		goldens: goldens,
		eng:     lpmem.NewEngine(runner.Options{Workers: 1, NoCache: true}),
	}, nil
}

// loadGoldens reads the golden snapshot of every registry experiment.
func loadGoldens(dir string) (map[string]regress.Snapshot, error) {
	out := map[string]regress.Snapshot{}
	for _, e := range lpmem.Experiments() {
		g, err := regress.ReadGolden(dir, e.ID)
		if err != nil {
			return nil, err
		}
		out[e.ID] = g
	}
	return out, nil
}

// checkSnapshot compares one regenerated table with its golden.
func checkSnapshot(goldens map[string]regress.Snapshot, live regress.Snapshot) error {
	g, ok := goldens[live.ID]
	if !ok {
		return fmt.Errorf("%s: no golden", live.ID)
	}
	var problems []string
	for _, d := range regress.CompareSnapshot(g, live) {
		problems = append(problems, d.String())
	}
	return errCheck(problems)
}

// pass regenerates all tables once and returns the pass wall time and
// each experiment's time. Untraced, it is one RunBatch over the registry;
// traced, one RunBatch per experiment inside an exp.<ID> span, with the
// heap allocations each made.
func (s *suite) pass(b *bench, tr *tracer) (wall time.Duration, expTimes []float64, allocs map[string]uint64) {
	ctx := context.Background()
	settle()
	start := time.Now()
	var reports []lpmem.Report
	if tr == nil {
		reports = lpmem.RunBatch(ctx, s.eng, s.exps)
	} else {
		allocs = map[string]uint64{}
		root := tr.begin("suite", 0, "")
		for _, e := range s.exps {
			a0 := heapAllocs()
			id := tr.begin("exp."+e.ID, root, "")
			reports = append(reports, lpmem.RunBatch(ctx, s.eng, []lpmem.Experiment{e})...)
			tr.end(id)
			allocs[e.ID] = heapAllocs() - a0
		}
		tr.end(root)
	}
	wall = time.Since(start)
	for _, r := range reports {
		expTimes = append(expTimes, r.Outcome.Duration.Seconds())
		err := r.Outcome.Err
		if err == nil {
			err = checkSnapshot(s.goldens, regress.SnapshotOf(r))
		}
		b.check("suite "+r.Experiment.ID, err)
	}
	return wall, expTimes, allocs
}

// measureSuite is the untraced suite workload.
func measureSuite(b *bench, dir string) error {
	s, err := newSuite(b.cfg.golden)
	if err != nil {
		return err
	}
	var walls []float64
	expTimes := make([][]float64, len(s.exps))
	for reps := repeater(b.cfg.seconds); reps.next(); {
		wall, times, _ := s.pass(b, nil)
		walls = append(walls, wall.Seconds())
		for i, t := range times {
			expTimes[i] = append(expTimes[i], t)
		}
	}
	// Host speed drifts over seconds, so a pass's wall time depends on
	// which experiments a slow spell hit. The suite time is therefore the
	// sum over experiments of each one's median time across passes. The
	// typical experiment is the geometric mean of those medians: the
	// median experiment would jump across the gap between neighbouring
	// experiments' times.
	suiteS, logSum := 0.0, 0.0
	for _, ts := range expTimes {
		m := stats.Median(ts)
		suiteS += m
		logSum += math.Log(m)
	}
	b.set("cold_s", suiteS, "s")
	b.set("ops_per_s", float64(len(s.exps))/suiteS, "1/s")
	b.set("latency_ms", 1000*math.Exp(logSum/float64(len(expTimes))), "ms")
	fmt.Fprintf(b.report, "suite_s %.4f s (sum of per-experiment medians; pass walls %s s)\n", suiteS, list(walls))
	return nil
}

// kernelRun is one kernel's seed-1 trace, as E1 and the sweep adapters
// build it.
type kernelRun struct {
	name   string
	trace  *trace.Trace
	cycles uint64
}

// probeLayers times the benchmark's own calls into the interpreter,
// trace codec, partitioner, NoC mapper and test-compression layers, on
// the inputs the experiments give them, and checks each probe's table
// rows against the experiment's golden so the probe provably makes the
// same calls.
func probeLayers(b *bench, tr *tracer, goldens map[string]regress.Snapshot) ([]kernelRun, error) {
	kernels, err := probeWorkloads(b, tr)
	if err != nil {
		return nil, err
	}
	if err := probeTrace(b, tr, kernels); err != nil {
		return nil, err
	}
	if err := probeCore(b, tr, goldens, kernels); err != nil {
		return nil, err
	}
	probeNoC(b, tr, goldens)
	probeTestcomp(b, tr, goldens)
	return kernels, nil
}

// probeWorkloads runs all 18 kernels at seed 1 on the interpreter.
func probeWorkloads(b *bench, tr *tracer) ([]kernelRun, error) {
	var out []kernelRun
	var instructions uint64
	root := tr.begin("workloads", 0, "")
	for _, k := range workloads.All() {
		inst := k.Build(1)
		id := tr.begin("workloads.run", root, k.Name)
		res, err := workloads.Run(inst)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		instructions += res.Retired
		out = append(out, kernelRun{name: k.Name, trace: res.Trace, cycles: res.Cycles})
	}
	tr.end(root)
	secs := tr.seconds("workloads.run")
	b.set("workloads.run.s", secs, "s")
	b.set("workloads.run.instructions", float64(instructions), "count")
	b.set("workloads.run.minstr_per_s", float64(instructions)/secs/1e6, "Minstr/s")
	return out, nil
}

// probeTrace round-trips the kernel traces through the LPMT encoder and
// the streaming reader.
func probeTrace(b *bench, tr *tracer, kernels []kernelRun) error {
	bufs := make([]bytes.Buffer, len(kernels))
	var accesses, size int
	for i, k := range kernels {
		id := tr.begin("trace.encode", 0, k.name)
		err := k.trace.WriteBinary(&bufs[i])
		tr.end(id)
		if err != nil {
			return err
		}
		accesses += k.trace.Len()
		size += bufs[i].Len()
	}
	for i, k := range kernels {
		raw := bufs[i].Bytes()
		id := tr.begin("trace.decode", 0, k.name)
		r, err := trace.NewReader(bytes.NewReader(raw))
		if err == nil {
			for r.Next() {
			}
			err = r.Err()
		}
		tr.end(id)
		if err == nil {
			err = sameTrace(k.trace, raw)
		}
		b.check("trace round trip "+k.name, err)
	}
	b.set("trace.encode.s", tr.seconds("trace.encode"), "s")
	b.set("trace.decode.s", tr.seconds("trace.decode"), "s")
	b.set("trace.bytes_per_access", float64(size)/float64(accesses), "B")
	return nil
}

// sameTrace checks that an encoded trace decodes to the original.
func sameTrace(want *trace.Trace, raw []byte) error {
	got, err := trace.ReadBinary(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("decoded %d accesses, want %d", got.Len(), want.Len())
	}
	for i := range want.Accesses {
		if got.Accesses[i] != want.Accesses[i] {
			return fmt.Errorf("access %d decoded as %+v, want %+v", i, got.Accesses[i], want.Accesses[i])
		}
	}
	return nil
}

// probeCore times core.Optimize on E1's inputs: the 18 kernels, the
// composite applications and the synthetic profile applications.
func probeCore(b *bench, tr *tracer, goldens map[string]regress.Snapshot, kernels []kernelRun) error {
	apps, err := e1Apps(kernels)
	if err != nil {
		return err
	}
	opt := core.DefaultOptions()
	table := stats.NewTable(goldens["E1"].Header...)
	for _, app := range apps {
		id := tr.begin("core.optimize", 0, app.name)
		rep, err := core.Optimize(app.trace, app.cycles, opt)
		tr.end(id)
		if err != nil {
			return err
		}
		table.AddRow(app.name, float64(rep.MonolithicE), float64(rep.PartitionedE),
			float64(rep.ClusteredE), rep.SavingVsPartitioned(), rep.SavingVsMonolithic())
	}
	b.check("core.Optimize rows", checkRows(goldens, "E1", table))
	b.set("core.optimize.s", tr.seconds("core.optimize"), "s")
	return nil
}

// e1Apps rebuilds E1's application list from the kernel traces: the
// kernels themselves, their composites, and the profile applications.
func e1Apps(kernels []kernelRun) ([]kernelRun, error) {
	byName := map[string]kernelRun{}
	for _, k := range kernels {
		byName[k.name] = k
	}
	apps := append([]kernelRun(nil), kernels...)
	for _, c := range []struct {
		name  string
		parts []string
	}{
		{"app-media", []string{"fir", "dct", "adpcm"}},
		{"app-net", []string{"crc32", "strsearch", "histogram", "hashlookup"}},
		{"app-ptr", []string{"listchase", "spmv", "fibcall"}},
		{"app-rtos", []string{"fibcall", "qsort", "listchase", "histogram"}},
		{"app-dsp", []string{"fft", "autocorr", "huffman", "bitcount"}},
	} {
		merged := trace.New(1 << 16)
		var cycles uint64
		for _, p := range c.parts {
			k, ok := byName[p]
			if !ok {
				return nil, fmt.Errorf("composite %s: no kernel %s", c.name, p)
			}
			merged.Accesses = append(merged.Accesses, k.trace.Accesses...)
			cycles += k.cycles
		}
		apps = append(apps, kernelRun{name: c.name, trace: merged, cycles: cycles})
	}
	for _, p := range []struct {
		name      string
		seed      int64
		image     uint32
		hotEvery  int
		hotWeight float64
		n         int
	}{
		{"prof-sparse", 11, 128 << 10, 16, 150, 100_000},
		{"prof-medium", 12, 128 << 10, 8, 50, 100_000},
		{"prof-dense", 13, 64 << 10, 4, 8, 100_000},
	} {
		const blk = 1024
		var regions []trace.Region
		for i := uint32(0); i < p.image/blk; i++ {
			r := trace.Region{Base: i * blk, Size: blk, Weight: 1}
			if int(i)%p.hotEvery == 0 {
				r.Weight, r.Stride = p.hotWeight, 4
			}
			regions = append(regions, r)
		}
		t := trace.Synthesize(trace.SynthConfig{Seed: p.seed, N: p.n, Regions: regions, WriteFraction: 0.3})
		apps = append(apps, kernelRun{name: p.name, trace: t, cycles: uint64(p.n) * 3})
	}
	return apps, nil
}

// probeNoC times E10's three branch-and-bound mappings.
func probeNoC(b *bench, tr *tracer, goldens map[string]regress.Snapshot) {
	g := noc.MMSGraph()
	table := stats.NewTable(goldens["E10"].Header...)
	var visited uint64
	for _, bw := range []float64{1500, 1000, 700} {
		m := noc.DefaultMesh()
		m.LinkBW = bw
		adhoc := m.CommEnergy(g, noc.RowMajor(g.N))
		id := tr.begin("noc.mapbnb", 0, fmt.Sprint(bw))
		res, err := noc.MapBnB(m, g, 2_000_000)
		tr.end(id)
		if err != nil {
			table.AddRow(bw, float64(adhoc), "infeasible", 0.0, 0)
			continue
		}
		visited += res.Visited
		table.AddRow(bw, float64(adhoc), float64(res.Energy),
			stats.PercentSaving(float64(adhoc), float64(res.Energy)), res.Visited)
	}
	b.check("noc.MapBnB rows", checkRows(goldens, "E10", table))
	secs := tr.seconds("noc.mapbnb")
	b.set("noc.mapbnb.s", secs, "s")
	b.set("noc.mapbnb.visited", float64(visited), "count")
	b.set("noc.mapbnb.ns_per_node", secs*1e9/float64(visited), "ns")
}

// probeTestcomp times E18's LZW fills and encodings and its stitching.
func probeTestcomp(b *bench, tr *tracer, goldens map[string]regress.Snapshot) {
	table := stats.NewTable(goldens["E18"].Header...)
	for i, cfg := range []struct {
		n, length int
		care      float64
	}{
		{100, 512, 0.02},
		{100, 512, 0.05},
		{150, 1024, 0.10},
	} {
		ps := testcomp.Generate(int64(i+1), cfg.n, cfg.length, cfg.care)
		ratios := map[testcomp.FillPolicy]float64{}
		for _, pol := range []testcomp.FillPolicy{testcomp.FillZero, testcomp.FillRepeat, testcomp.FillRandom} {
			id := tr.begin("testcomp.lzw", 0, pol.String())
			stream := testcomp.Fill(ps, pol, 7)
			codes := testcomp.LZWEncode(stream)
			tr.end(id)
			ratios[pol] = testcomp.Ratio(len(stream), codes)
		}
		responses := testcomp.Responses(ps, 7)
		id := tr.begin("testcomp.stitch", 0, "")
		st := testcomp.Stitch(ps, responses)
		tr.end(id)
		table.AddRow(fmt.Sprintf("scan%d (%dx%d)", i+1, cfg.n, cfg.length),
			100*cfg.care, ratios[testcomp.FillZero], ratios[testcomp.FillRepeat],
			ratios[testcomp.FillRandom], 100*st.Saving())
	}
	b.check("testcomp rows", checkRows(goldens, "E18", table))
	b.set("testcomp.lzw.s", tr.seconds("testcomp.lzw"), "s")
	b.set("testcomp.stitch.s", tr.seconds("testcomp.stitch"), "s")
}

// checkRows compares a probe's table with the experiment's golden rows.
func checkRows(goldens map[string]regress.Snapshot, id string, table *stats.Table) error {
	live := goldens[id]
	live.Header, live.Rows = table.Header(), table.ToRows()
	return checkSnapshot(goldens, live)
}
