package lpmem

import (
	"fmt"

	"lpmem/internal/core"
	"lpmem/internal/energy"
	"lpmem/internal/hier"
	"lpmem/internal/isa"
	"lpmem/internal/stackmem"
	"lpmem/internal/stats"
	"lpmem/internal/workloads"

	icache "lpmem/internal/cache"
)

// runE1 regenerates the address-clustering table (DATE'03 1B.1): for each
// application, memory energy monolithic vs optimally partitioned vs
// clustered-then-partitioned.
func runE1() (*Result, error) {
	apps, err := workloads.Traces(1)
	if err != nil {
		return nil, err
	}
	comps, err := compositeApps(apps)
	if err != nil {
		return nil, err
	}
	apps = append(apps, comps...)
	apps = append(apps, profileApps()...)

	opt := core.DefaultOptions()
	table := stats.NewTable("app", "monolithic", "partitioned", "clustered", "vs-part %", "vs-mono %")
	var savings, appSavings []float64
	for _, app := range apps {
		rep, err := core.Optimize(app.Trace, app.Cycles, opt)
		if err != nil {
			return nil, err
		}
		s := rep.SavingVsPartitioned()
		savings = append(savings, s)
		// The paper evaluates full embedded applications; the composite
		// apps and profile apps are our equivalents of that class, while
		// single kernels are a harder (already-compact) setting.
		if len(app.Name) > 4 && (app.Name[:4] == "app-" || app.Name[:5] == "prof-") {
			appSavings = append(appSavings, s)
		}
		table.AddRow(app.Name, float64(rep.MonolithicE), float64(rep.PartitionedE),
			float64(rep.ClusteredE), s, rep.SavingVsMonolithic())
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("clustering vs partitioning-alone: application-class avg %.1f%%, max %.1f%%; whole-suite avg %.1f%% (paper: avg 25%%, max 57%% over 5 applications)",
			stats.Mean(appSavings), stats.Max(savings), stats.Mean(savings)),
	}, nil
}

// runE8 regenerates the layer-assignment comparison (10F.1) on phased
// multi-kernel applications.
func runE8() (*Result, error) {
	combos := [][]string{
		{"fir", "dct", "adpcm", "histogram", "crc32"},
		{"matmul", "autocorr", "sort", "strsearch"},
		{"fir", "dct", "adpcm", "histogram", "crc32", "matmul", "autocorr", "sort"},
	}
	layers := hier.DefaultLayers(energy.DefaultMemoryModel())
	table := stats.NewTable("app", "off-chip", "static", "lifetime", "lifetime/static")
	var ratios []float64
	for i, parts := range combos {
		// One part at a time, so no more than one kernel trace is live
		// beside the application being built.
		var app workloads.Result
		for _, p := range parts {
			part, err := workloads.Traces(1, p)
			if err != nil {
				return nil, err
			}
			app.Append(part...)
		}
		regions := make([]hier.Region, len(app.Arrays))
		for j, arr := range app.Arrays {
			regions[j] = hier.Region(arr)
		}
		infos := hier.Profile(app.Trace, regions)
		off, static, lifetime, err := hier.Evaluate(infos, layers)
		if err != nil {
			return nil, err
		}
		ratio := float64(lifetime) / float64(static)
		ratios = append(ratios, ratio)
		table.AddRow(fmt.Sprintf("app%d(%d arrays)", i+1, len(infos)),
			float64(off), float64(static), float64(lifetime), ratio)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("lifetime-aware / static energy ratio: mean %.2f (paper: ~0.5)",
			stats.Mean(ratios)),
	}, nil
}

// runE9 regenerates the stack-memory table (10F.3) across the kernel
// suite.
func runE9() (*Result, error) {
	cfg := stackmem.Config{
		StackLo:   isa.DefaultStackTop - isa.DefaultStackSize,
		StackHi:   isa.DefaultStackTop + 16,
		StackSRAM: 2048,
		Cache:     icache.Config{Sets: 64, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true},
	}
	cm := energy.DefaultCacheModel()
	mm := energy.DefaultMemoryModel()
	apps, err := workloads.Traces(1)
	if err != nil {
		return nil, err
	}
	// Whole applications mix call-heavy control code with flat kernels,
	// which is the workload class of the paper's SPEC/MediaBench numbers;
	// the flat kernels alone have (realistically) no stack traffic.
	comps, err := compositeApps(apps)
	if err != nil {
		return nil, err
	}
	apps = append(apps, comps...)
	table := stats.NewTable("workload", "stack frac %", "cache saving %", "net saving %", "misses base", "misses split")
	var best float64
	for _, app := range apps {
		r, err := stackmem.Simulate(app.Trace, cfg, cm, mm)
		if err != nil {
			return nil, err
		}
		if r.CacheSaving() > best && r.StackFraction < 0.99 {
			best = r.CacheSaving()
		}
		table.AddRow(app.Name, 100*r.StackFraction, r.CacheSaving(), r.TotalSaving(),
			r.BaseMisses, r.SplitMisses)
	}
	return &Result{
		Table:   table,
		Summary: fmt.Sprintf("best mixed-workload L1 D-cache saving %.1f%% (paper: up to 32.5%%)", best),
	}, nil
}
