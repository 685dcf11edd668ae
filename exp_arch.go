package lpmem

import (
	"fmt"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/reconfig"
	"lpmem/internal/stats"
	"lpmem/internal/waycache"
	"lpmem/internal/workloads"
)

// runE4 regenerates the reconfigurable-array data-scheduling comparison
// (1B.4): energy breakdown of the naive execution vs the two-level data
// scheduler, for the multimedia pipeline and the six-context variant.
func runE4() (*Result, error) {
	arch := reconfig.DefaultArch(energy.DefaultMemoryModel())
	table := stats.NewTable("app", "variant", "data E", "transfer E", "config E", "total", "saving %")
	apps := []struct {
		name string
		app  *reconfig.App
	}{
		{"jpeg-pipe x16", reconfig.MultimediaApp(16)},
		{"jpeg-pipe x64", reconfig.MultimediaApp(64)},
		{"mpeg-wide x16", reconfig.WideApp(16)},
	}
	var last float64
	for _, a := range apps {
		base, err := reconfig.Baseline(a.app, arch)
		if err != nil {
			return nil, err
		}
		sched, _, err := reconfig.Schedule(a.app, arch)
		if err != nil {
			return nil, err
		}
		s := stats.PercentSaving(float64(base.Total()), float64(sched.Total()))
		last = s
		table.AddRow(a.name, "baseline", float64(base.Data), float64(base.Transfer), float64(base.Config), float64(base.Total()), 0.0)
		table.AddRow(a.name, "scheduled", float64(sched.Data), float64(sched.Transfer), float64(sched.Config), float64(sched.Total()), s)
	}
	return &Result{
		Table:   table,
		Summary: fmt.Sprintf("two-level scheduling cuts total energy by %.1f%% on the wide app (paper: qualitative reduction)", last),
	}, nil
}

// runE7 regenerates the way-determination table (10E.4): average cache
// power reduction at 8/16/32 ways over the kernel suite.
func runE7() (*Result, error) {
	apps, err := workloads.Traces(1)
	if err != nil {
		return nil, err
	}
	cm := energy.DefaultCacheModel()
	table := stats.NewTable("ways", "avg coverage", "avg saving %", "min saving %", "max saving %")
	var rows []float64
	for _, ways := range []int{8, 16, 32} {
		cfg := cache.Config{Sets: 16, Ways: ways, LineSize: 32, WriteBack: true, WriteAllocate: true}
		var savings, coverages []float64
		for _, app := range apps {
			r, err := waycache.Simulate(app.Trace, cfg, 16, cm)
			if err != nil {
				return nil, err
			}
			savings = append(savings, r.Saving())
			coverages = append(coverages, r.Coverage)
		}
		avg := stats.Mean(savings)
		rows = append(rows, avg)
		table.AddRow(ways, stats.Mean(coverages), avg, stats.Min(savings), stats.Max(savings))
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("avg cache power reduction %.0f/%.0f/%.0f%% at 8/16/32 ways (paper: 66/72/76%%)",
			rows[0], rows[1], rows[2]),
	}, nil
}
