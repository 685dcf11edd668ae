package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"lpmem/internal/cluster"
	"lpmem/internal/energy"
	"lpmem/internal/partition"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// refOptimize is the trace-rewriting form of the flow: it copies the
// data accesses, rewrites every address into the compacted address-order
// image and into the clustered image, and profiles both rewrites.
// Optimize must report the same energies and clustered partition.
func refOptimize(tb testing.TB, t *trace.Trace, cycles uint64, opt Options) (*Report, error) {
	opt.Cluster.BlockSize = opt.BlockSize
	data := t.Data()

	baseTrace := refRemap(tb, data, refIdentityOrder(data, opt.BlockSize), opt.BlockSize)
	baseSpec, _, err := partition.SpecFromTrace(baseTrace, opt.BlockSize, cycles)
	if err != nil {
		return nil, err
	}
	monoE := partition.Energy(baseSpec, partition.Monolithic(baseSpec), opt.Model)
	_, baseE, err := partition.Optimal(baseSpec, opt.MaxBanks, opt.Model)
	if err != nil {
		return nil, err
	}

	order, err := cluster.Cluster(data, opt.Cluster)
	if err != nil {
		return nil, err
	}
	clSpec, _, err := partition.SpecFromTrace(refRemap(tb, data, order, opt.BlockSize), opt.BlockSize, cycles)
	if err != nil {
		return nil, err
	}
	clPart, clE, err := partition.Optimal(clSpec, opt.MaxBanks, opt.Model)
	if err != nil {
		return nil, err
	}
	clE += opt.RemapEnergy * energy.PJ(clSpec.TotalAccesses())
	return &Report{MonolithicE: monoE, PartitionedE: baseE, ClusteredE: clE, ClusteredPartition: clPart}, nil
}

// refIdentityOrder lists the blocks data touches in ascending address
// order: the image a linker lays out without clustering hardware.
func refIdentityOrder(data *trace.Trace, blockSize uint32) []uint32 {
	mask := ^(blockSize - 1)
	seen := make(map[uint32]bool)
	for _, a := range data.Accesses {
		seen[a.Addr&mask] = true
	}
	order := make([]uint32, 0, len(seen))
	for b := range seen {
		order = append(order, b)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// refRemap returns a copy of data with each address moved to block
// order[i]'s position i, keeping its offset in the block. Every block
// data touches must be in order.
func refRemap(tb testing.TB, data *trace.Trace, order []uint32, blockSize uint32) *trace.Trace {
	index := make(map[uint32]uint32, len(order))
	for i, b := range order {
		index[b] = uint32(i)
	}
	out := trace.New(data.Len())
	for _, a := range data.Accesses {
		i, ok := index[a.Addr&^(blockSize-1)]
		if !ok {
			tb.Fatalf("block %#x of address %#x is not in the order", a.Addr&^(blockSize-1), a.Addr)
		}
		a.Addr = i*blockSize + a.Addr&(blockSize-1)
		out.Append(a)
	}
	return out
}

// e1Inputs builds the applications E1 optimises: the 18 kernels, then
// five composites of them and three synthetic profile applications,
// with the parts and parameters E1 uses.
func e1Inputs(t *testing.T) (kernels, apps []*workloads.Result) {
	kernels, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*workloads.Result, len(kernels))
	for _, k := range kernels {
		byName[k.Name] = k
	}
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
		app := &workloads.Result{Name: c.name}
		for _, p := range c.parts {
			app.Append(byName[p])
		}
		apps = append(apps, app)
	}
	for _, p := range []struct {
		name      string
		seed      int64
		image     uint32
		hotEvery  uint32
		hotWeight float64
	}{
		{"prof-sparse", 11, 128 << 10, 16, 150},
		{"prof-medium", 12, 128 << 10, 8, 50},
		{"prof-dense", 13, 64 << 10, 4, 8},
	} {
		var regions []trace.Region
		for i := uint32(0); i < p.image/1024; i++ {
			r := trace.Region{Base: i * 1024, Size: 1024, Weight: 1}
			if i%p.hotEvery == 0 {
				r.Weight, r.Stride = p.hotWeight, 4
			}
			regions = append(regions, r)
		}
		const n = 100_000
		tr := trace.Synthesize(trace.SynthConfig{Seed: p.seed, N: n, Regions: regions, WriteFraction: 0.3})
		apps = append(apps, &workloads.Result{Name: p.name, Trace: tr, Cycles: 3 * n})
	}
	return kernels, apps
}

// randomTrace draws a trace with every access kind over scattered hot
// and cold regions; kinds restricts the kinds drawn.
func randomTrace(r *rand.Rand, n int, kinds ...trace.Kind) *trace.Trace {
	bases := make([]uint32, 1+r.Intn(12))
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<16)) << 6
	}
	t := trace.New(n)
	for i := 0; i < n; i++ {
		base := bases[0]
		if r.Intn(4) == 0 {
			base = bases[r.Intn(len(bases))]
		}
		t.Append(trace.Access{
			Addr:  base + uint32(r.Intn(4096))&^3,
			Width: 4,
			Kind:  kinds[r.Intn(len(kinds))],
		})
	}
	return t
}

// sameReport requires bit-identical energies and an equal clustered
// partition, or the same error.
func sameReport(t *testing.T, what string, got, want *Report, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	for _, e := range []struct {
		name      string
		got, want energy.PJ
	}{
		{"monolithic", got.MonolithicE, want.MonolithicE},
		{"partitioned", got.PartitionedE, want.PartitionedE},
		{"clustered", got.ClusteredE, want.ClusteredE},
	} {
		if math.Float64bits(float64(e.got)) != math.Float64bits(float64(e.want)) {
			t.Fatalf("%s: %s energy %v, reference %v", what, e.name, e.got, e.want)
		}
	}
	if !reflect.DeepEqual(got.ClusteredPartition, want.ClusteredPartition) {
		t.Fatalf("%s: clustered partition %v, reference %v", what, got.ClusteredPartition, want.ClusteredPartition)
	}
}

// referenceSettings are the block sizes and affinity weights both flows
// are compared at.
func referenceSettings() []Options {
	var opts []Options
	for _, bs := range []uint32{32, 64, 256} {
		for _, w := range []float64{0, 0.05, 5} {
			opt := DefaultOptions()
			opt.BlockSize = bs
			opt.Cluster.AffinityWeight = w
			opts = append(opts, opt)
		}
	}
	return opts
}

// TestOptimizeMatchesReferenceOnE1Inputs: permuting the profile gives the
// trace-rewriting flow's results on every application E1 optimises, the
// kernels at every reference setting. The composites and profile
// applications span thousands of blocks, which makes the bank DP costly
// at small block sizes, so they are compared at E1's own settings; the
// random traces cover such scattered images at every setting.
func TestOptimizeMatchesReferenceOnE1Inputs(t *testing.T) {
	kernels, apps := e1Inputs(t)
	check := func(app *workloads.Result, opt Options) {
		got, gotErr := Optimize(app.Trace, app.Cycles, opt)
		want, wantErr := refOptimize(t, app.Trace, app.Cycles, opt)
		sameReport(t, app.Name, got, want, gotErr, wantErr)
	}
	for _, k := range kernels {
		for _, opt := range referenceSettings() {
			check(k, opt)
		}
	}
	for _, app := range apps {
		check(app, DefaultOptions())
	}
}

// TestOptimizeMatchesReferenceOnRandomTraces covers what the kernels do
// not: an empty trace, a fetch-only one and traces mixing every kind.
func TestOptimizeMatchesReferenceOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	inputs := []*trace.Trace{trace.New(0), randomTrace(r, 500, trace.Fetch)}
	for i := 0; i < 18; i++ {
		inputs = append(inputs, randomTrace(r, 1+r.Intn(3000), trace.Fetch, trace.Read, trace.Write))
	}
	for i, tr := range inputs {
		for _, opt := range referenceSettings() {
			got, gotErr := Optimize(tr, uint64(2*tr.Len()), opt)
			want, wantErr := refOptimize(t, tr, uint64(2*tr.Len()), opt)
			sameReport(t, fmt.Sprintf("random trace %d", i), got, want, gotErr, wantErr)
		}
	}
}

// TestOptimizeCopiesNoTrace: Optimize reads its trace in place. On a
// data-only trace of a million accesses it allocates less than the trace
// holds, so a copy of the trace or of its data accesses fails the test.
func TestOptimizeCopiesNoTrace(t *testing.T) {
	const n = 1 << 20
	tr := trace.New(n + 2)
	// c[i] = a[i] + b[i] over three 16 KiB arrays, repeated: a few hundred
	// blocks and a sparse affinity graph, the shape of E1's kernels.
	for i := uint32(0); tr.Len() < n; i = (i + 4) % (16 << 10) {
		tr.Append(trace.Access{Addr: 0x10000 + i, Width: 4, Kind: trace.Read})
		tr.Append(trace.Access{Addr: 0x20000 + i, Width: 4, Kind: trace.Read})
		tr.Append(trace.Access{Addr: 0x30000 + i, Width: 4, Kind: trace.Write})
	}
	held := uint64(tr.Len()) * uint64(reflect.TypeOf(trace.Access{}).Size())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Optimize(tr, 2*n, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= held {
		t.Fatalf("Optimize allocated %d bytes on a trace holding %d", got, held)
	}
}
