package lpmem

import (
	"fmt"

	"lpmem/internal/cachedesign"
	"lpmem/internal/stats"
	"lpmem/internal/workloads"
)

// runE19 regenerates the cache design-space exploration comparison (8A.1):
// for each benchmark, the smallest cache meeting a miss-rate target found
// by the exhaustive design-simulate-analyze loop versus the direct
// (monotonicity-exploiting) method, and the number of simulations each
// needed.
func runE19() (*Result, error) {
	table := stats.NewTable("kernel", "target mr", "exhaustive B", "sims", "direct B", "sims", "sims saved %")
	var savings []float64
	for _, bench := range []struct {
		kernel string
		target float64
	}{
		{"matmul", 0.03}, {"histogram", 0.03}, {"fir", 0.03},
		{"listchase", 0.15}, {"hashlookup", 0.10}, {"qsort", 0.03},
	} {
		runs, err := workloads.Traces(1, bench.kernel)
		if err != nil {
			return nil, err
		}
		e := cachedesign.NewExplorer(runs[0].Trace)
		space := cachedesign.DefaultSpace()
		ex, err := e.Exhaustive(space, bench.target)
		if err != nil {
			return nil, err
		}
		exSims := e.Simulations
		e.Reset()
		dir, err := e.Direct(space, bench.target)
		if err != nil {
			return nil, err
		}
		dirSims := e.Simulations
		s := stats.PercentSaving(float64(exSims), float64(dirSims))
		savings = append(savings, s)
		table.AddRow(bench.kernel, bench.target, ex.SizeBytes(), exSims, dir.SizeBytes(), dirSims, s)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("direct exploration meets every target with %.0f%% fewer simulations than design-simulate-analyze (paper: avoids slow iterative convergence)",
			stats.Mean(savings)),
	}, nil
}
