package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lpmem/internal/resultstore"
	"lpmem/internal/stats"
)

// nucaAccessesPerCore is the per-core length of the nuca adapter's
// reference traces (internal/sweep/adapter_nuca.go).
const nucaAccessesPerCore = 4000

// overheadPairs is how many untraced/traced repetition pairs measure
// the tracing overhead.
const overheadPairs = 3

// runTraced is the traced run. It runs the layer probes and one traced
// repetition of every workload, so one traced run of any workload prints
// every per-layer metric, then measures the tracing overhead on the
// selected workload and writes the spans out.
func runTraced(b *bench, dir string) error {
	s, err := newSuite(b.cfg.golden)
	if err != nil {
		return err
	}
	sw, err := newSweep()
	if err != nil {
		return err
	}
	sv, err := newServe(b.cfg, dir)
	if err != nil {
		return err
	}
	sweepPath := func(n int) string { return filepath.Join(dir, fmt.Sprintf("sweep-%d.jsonl", n)) }

	tr := newTracer()
	kernels, err := probeLayers(b, tr, s.goldens)
	if err != nil {
		return err
	}
	_, _, allocs := s.pass(b, tr)
	for _, e := range s.exps {
		b.set("exp."+e.ID+".s", tr.seconds("exp."+e.ID), "s")
		b.set("exp."+e.ID+".allocs", float64(allocs[e.ID]), "count")
	}
	c, err := sw.cycle(b, sweepPath(0), tr)
	if err != nil {
		return err
	}
	setSweepLayers(b, tr, sw, c, kernels)
	sc, err := sv.cycle(b, 0, tr)
	if err != nil {
		return err
	}
	setServeLayers(b, tr, sc)

	// repetition n of the selected workload, traced when t is set.
	repetition := func(n int, t *tracer) (err error) {
		switch b.cfg.workload {
		case "suite":
			s.pass(b, t)
		case "sweep":
			_, err = sw.cycle(b, sweepPath(n), t)
		case "serve":
			_, err = sv.cycle(b, n, t)
		}
		return err
	}
	// Alternate untraced and traced repetitions, swapping which goes
	// first, and take the median difference: host speed drifts, and the
	// two halves of a pair see nearly the same host.
	var diffs []float64
	for i := 0; i < overheadPairs; i++ {
		var wall [2]time.Duration // [untraced, traced]
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			var t *tracer
			if k == 1 {
				t = newTracer() // discarded: only its cost matters
			}
			start := time.Now()
			if err := repetition(1+2*i+j, t); err != nil {
				return err
			}
			wall[k] = time.Since(start)
		}
		diffs = append(diffs, (wall[1] - wall[0]).Seconds())
	}
	overhead := stats.Median(diffs)
	b.set("bench.trace_overhead_s", overhead, "s")
	fmt.Fprintf(b.report, "tracing overhead on %s: %.4f s (median; traced minus untraced per pair %s s)\n",
		b.cfg.workload, overhead, list(diffs))

	path := filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(b.report, "spans written to %s\n", path)
	return nil
}

// setSweepLayers derives the sweep, replay and runner metrics of one
// traced sweep cycle.
func setSweepLayers(b *bench, tr *tracer, sw *sweeper, c sweepCycle, kernels []kernelRun) {
	accesses := map[string]int{}
	for _, sp := range sw.spaces {
		b.set("sweep."+sp.name+".s", tr.seconds("adapter."+sp.name), "s")
		b.set("sweep."+sp.name+".points", float64(len(tr.find("adapter."+sp.name))), "count")
		switch sp.name {
		case "cache":
			accesses["cache"] = len(sp.grid) * referenceDataAccesses(kernels)
		case "nuca":
			for _, p := range sp.grid {
				accesses["nuca"] += p.Int("cores") * nucaAccessesPerCore
			}
		}
	}
	for _, name := range []string{"cache", "nuca"} {
		b.set(name+".replay.maccess_per_s", float64(accesses[name])/tr.seconds("adapter."+name)/1e6, "Maccess/s")
	}
	b.set("sweep.cold.s", c.cold.Seconds(), "s")
	b.set("sweep.warm.s", c.warm.Seconds(), "s")
	b.set("sweep.store.open.s", c.open.Seconds(), "s")
	b.set("sweep.warm.hit_ratio", float64(c.cached)/float64(c.total), "ratio")
	b.set("runner.jobs", float64(c.jobs), "count")
	b.set("runner.queue_wait.s", c.queueWait.Seconds(), "s")
	b.set("runner.idle_ratio", 1-c.busy.Seconds()/(sweepWorkers*c.cold.Seconds()), "ratio")
}

// referenceDataAccesses is the length of the sweep adapters' shared
// reference trace: the data accesses of fir, dct, adpcm and crc32.
func referenceDataAccesses(kernels []kernelRun) int {
	n := 0
	for _, k := range kernels {
		switch k.name {
		case "fir", "dct", "adpcm", "crc32":
			n += k.trace.Data().Len()
		}
	}
	return n
}

// setServeLayers derives the runner, httpapi and resultstore metrics of
// one traced serve cycle.
func setServeLayers(b *bench, tr *tracer, c serveCycle) {
	busy := tr.seconds("serve.exp.run")
	b.set("runner.cold.busy_s", busy, "s")
	b.set("runner.cold.idle_ratio", 1-busy/(serveWorkers*c.coldFill.Seconds()), "ratio")

	handler := map[string]time.Duration{}
	for _, kind := range []string{"one", "batch", "list"} {
		var lat []float64
		for _, s := range tr.find("httpapi." + kind) {
			if strings.HasPrefix(s.Key, "w") { // warm requests only
				lat = append(lat, ms(s.End-s.Start))
				handler[s.Key] = s.End - s.Start
			}
		}
		sort.Float64s(lat)
		p50, _ := percentile(lat, 0.50)
		p99, _ := percentile(lat, 0.99)
		b.set("httpapi."+kind+".p50_ms", p50, "ms")
		b.set("httpapi."+kind+".p99_ms", p99, "ms")
	}
	var transport []float64
	for _, s := range tr.find("http.client") {
		if h, ok := handler[s.Key]; ok {
			transport = append(transport, ms(s.End-s.Start-h))
		}
	}
	sort.Float64s(transport)
	p50, _ := percentile(transport, 0.50)
	b.set("http.transport.p50_ms", p50, "ms")
	b.set("httpapi.admission.admitted", float64(c.admission.Admitted), "count")
	b.set("httpapi.admission.shed", float64(c.admission.Shed), "count")

	for _, ph := range []struct {
		name string
		st   resultstore.Stats
	}{{"cold", c.storeCold}, {"warm", c.storeWarm}} {
		p := "resultstore." + ph.name + "."
		b.set(p+"hits", float64(ph.st.Hits), "count")
		b.set(p+"misses", float64(ph.st.Misses), "count")
		b.set(p+"file_reads", float64(ph.st.FileReads), "count")
		b.set(p+"appends", float64(ph.st.Appends), "count")
		ratio := 0.0
		if lookups := ph.st.Hits + ph.st.Misses; lookups > 0 {
			ratio = float64(ph.st.Hits) / float64(lookups)
		}
		b.set(p+"hit_ratio", ratio, "ratio")
	}
}
