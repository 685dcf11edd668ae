package core

import (
	"testing"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// TestCompositeAppTuning is an exploratory harness over composite
// application traces (several kernels sharing one address space), the
// setting of the paper's evaluation. It logs savings for bank budgets.
func TestCompositeAppTuning(t *testing.T) {
	apps := map[string][]string{
		"media": {"fir", "dct", "adpcm"},
		"net":   {"crc32", "strsearch", "histogram"},
		"calc":  {"matmul", "autocorr", "sort"},
	}
	for name, parts := range apps {
		merged := trace.New(1 << 16)
		var cycles uint64
		for _, p := range parts {
			k, err := workloads.ByName(p)
			if err != nil {
				t.Fatal(err)
			}
			res := testutil.MustRun(k.Build(1))
			for _, a := range res.Trace.Accesses {
				merged.Append(a)
			}
			cycles += res.Cycles
		}
		for _, banks := range []int{2, 4, 8} {
			opt := DefaultOptions()
			opt.MaxBanks = banks
			rep, err := Optimize(merged, cycles, opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-6s banks=%d mono=%10.0f part=%10.0f clust=%10.0f saving=%6.2f%% vsmono=%6.2f%%",
				name, banks, float64(rep.MonolithicE), float64(rep.PartitionedE),
				float64(rep.ClusteredE), rep.SavingVsPartitioned(), rep.SavingVsMonolithic())
		}
	}
}
