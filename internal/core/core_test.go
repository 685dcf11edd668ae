package core

import (
	"testing"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// TestOptimizeOnSyntheticHotCold checks the fundamental property: when hot
// and cold blocks are interleaved in the address space, clustering must
// beat plain partitioning.
func TestOptimizeOnSyntheticHotCold(t *testing.T) {
	// Hot blocks scattered between cold ones: 64 KiB of address space,
	// every 4th 256 B block is hot.
	regions := make([]trace.Region, 0, 32)
	for i := 0; i < 32; i++ {
		w := 0.2
		if i%4 == 0 {
			w = 10
		}
		regions = append(regions, trace.Region{
			Base:   uint32(i) * 2048,
			Size:   256,
			Weight: w,
			Stride: 4,
		})
	}
	tr := trace.Synthesize(trace.SynthConfig{Seed: 1, N: 50_000, Regions: regions, WriteFraction: 0.3})
	rep, err := Optimize(tr, 100_000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	if rep.PartitionedE >= rep.MonolithicE {
		t.Errorf("partitioning should beat monolithic: part=%v mono=%v", rep.PartitionedE, rep.MonolithicE)
	}
	if got := rep.SavingVsPartitioned(); got < 5 {
		t.Errorf("clustering saving vs partitioned = %.1f%%, want >= 5%%", got)
	}
}

// TestOptimizeOnKernels runs the full flow on every workload kernel and
// checks basic sanity: energies positive, clustering never catastrophically
// worse than the baseline (the remap table costs a little, so allow a small
// regression on kernels that are already perfectly laid out).
func TestOptimizeOnKernels(t *testing.T) {
	for _, k := range workloads.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res := testutil.MustRun(k.Build(1))
			rep, err := Optimize(res.Trace, res.Cycles, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep.MonolithicE <= 0 || rep.PartitionedE <= 0 || rep.ClusteredE <= 0 {
				t.Fatalf("non-positive energy: %+v", rep)
			}
			if rep.PartitionedE > rep.MonolithicE {
				t.Errorf("optimal partition worse than monolithic: %v > %v",
					rep.PartitionedE, rep.MonolithicE)
			}
			saving := rep.SavingVsPartitioned()
			t.Logf("%-10s mono=%10.0f part=%10.0f clust=%10.0f  saving=%6.2f%%  banks=%v",
				k.Name, float64(rep.MonolithicE), float64(rep.PartitionedE),
				float64(rep.ClusteredE), saving, rep.ClusteredPartition)
			if saving < -10 {
				t.Errorf("clustering regressed %.1f%% on %s", -saving, k.Name)
			}
		})
	}
}

// TestOptimizeRejectsBadOptions: a block size that is not a power of two
// (zero included) or a bank budget below one is an error, not a silent
// fallback to other options.
func TestOptimizeRejectsBadOptions(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Access{Addr: 0x100, Width: 4, Kind: trace.Read})
	for _, mutate := range []func(*Options){
		func(o *Options) { o.BlockSize = 0 },
		func(o *Options) { o.BlockSize = 48 },
		func(o *Options) { o.MaxBanks = 0 },
	} {
		opt := DefaultOptions()
		mutate(&opt)
		if rep, err := Optimize(tr, 10, opt); err == nil {
			t.Errorf("block size %d, %d banks: got %v, want an error", opt.BlockSize, opt.MaxBanks, rep)
		}
	}
}
