package lpmem

import (
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/compress"
	"lpmem/internal/core"
	"lpmem/internal/energy"
	"lpmem/internal/stats"
	"lpmem/internal/testutil"
	"lpmem/internal/waycache"
	"lpmem/internal/workloads"
)

// Ablation benchmarks: each sweeps one design choice called out in
// DESIGN.md and logs the resulting curve once, so `go test -bench
// Ablation -v` documents the sensitivity of every headline result.

// BenchmarkAblationClusterAffinity sweeps the clustering affinity weight:
// 0 is pure frequency ordering; large weights let cold blocks ride along
// with hot partners and hurt the heat gradient.
func BenchmarkAblationClusterAffinity(b *testing.B) {
	k, _ := workloads.ByName("hashlookup")
	res := testutil.MustRun(k.Build(1))
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("affinity weight", "saving vs partitioned %")
		for _, w := range []float64{0, 0.05, 0.5, 5, 50} {
			opt := core.DefaultOptions()
			opt.Cluster.AffinityWeight = w
			rep, err := core.Optimize(res.Trace, res.Cycles, opt)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(w, rep.SavingVsPartitioned())
		}
		if i == 0 {
			b.Logf("affinity-weight ablation (hashlookup):\n%s", tb.String())
		}
	}
}

// BenchmarkAblationBlockSize sweeps the clustering/partitioning
// granularity.
func BenchmarkAblationBlockSize(b *testing.B) {
	k, _ := workloads.ByName("listchase")
	res := testutil.MustRun(k.Build(1))
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("block size", "saving vs partitioned %")
		for _, bs := range []uint32{32, 64, 128, 256} {
			opt := core.DefaultOptions()
			opt.BlockSize = bs
			rep, err := core.Optimize(res.Trace, res.Cycles, opt)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(bs, rep.SavingVsPartitioned())
		}
		if i == 0 {
			b.Logf("block-size ablation (listchase):\n%s", tb.String())
		}
	}
}

// BenchmarkAblationWDUSize sweeps the way-determination table size (E7).
func BenchmarkAblationWDUSize(b *testing.B) {
	k, _ := workloads.ByName("fir")
	res := testutil.MustRun(k.Build(1))
	cfg := cache.Config{Sets: 16, Ways: 16, LineSize: 32, WriteBack: true, WriteAllocate: true}
	cm := energy.DefaultCacheModel()
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("WDU entries", "coverage", "saving %")
		for _, entries := range []int{2, 4, 8, 16, 32} {
			r, err := waycache.Simulate(res.Trace, cfg, entries, cm)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(entries, r.Coverage, r.Saving())
		}
		if i == 0 {
			b.Logf("WDU-size ablation (fir, 16-way):\n%s", tb.String())
		}
	}
}

// BenchmarkAblationLineSize sweeps the cache line size under the
// differential compressor (E2): longer lines compress better per line but
// move more speculative bytes.
func BenchmarkAblationLineSize(b *testing.B) {
	k, _ := workloads.ByName("adpcm")
	res := testutil.MustRun(k.Build(1))
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("line size", "boundary lines", "byte saving %")
		for _, ls := range []int{16, 32, 64} {
			cfg := cache.Config{Sets: 4096 / (2 * ls), Ways: 2, LineSize: ls, WriteBack: true, WriteAllocate: true}
			tr, _, err := compress.MeasureTraffic(res.Trace, cfg, compress.Differential{})
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(ls, tr.Lines, 100*tr.Saving())
		}
		if i == 0 {
			b.Logf("line-size ablation (adpcm, 4KiB cache):\n%s", tb.String())
		}
	}
}
