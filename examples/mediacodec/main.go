// Mediacodec: size the memory system of a media-codec SoC.
//
// The scenario is the one the DATE'03 1B session motivates: a battery
// powered device running filter/transform/codec kernels. The example
// builds a composite codec application from the workload suite and walks
// the full memory-energy toolbox:
//
//  1. address clustering + partitioning of the scratchpad space (1B.1)
//  2. differential write-back compression for the D-cache (1B.2)
//  3. lifetime-aware layer assignment across the hierarchy (10F.1)
package main

import (
	"fmt"
	"log"

	"lpmem/internal/cache"
	"lpmem/internal/compress"
	"lpmem/internal/core"
	"lpmem/internal/energy"
	"lpmem/internal/hier"
	"lpmem/internal/workloads"
)

func main() {
	// Build the codec application: FIR front end, DCT transform, ADPCM
	// coder, running back to back in one address space.
	parts, err := workloads.Traces(7, "fir", "dct", "adpcm")
	if err != nil {
		log.Fatal(err)
	}
	var app workloads.Result
	app.Append(parts...)
	regions := make([]hier.Region, len(app.Arrays))
	for i, arr := range app.Arrays {
		regions[i] = hier.Region(arr)
	}
	fmt.Printf("codec app: %d accesses over %d arrays\n\n", app.Trace.Len(), len(regions))

	// --- 1. Scratchpad banking with address clustering.
	rep, err := core.Optimize(app.Trace, app.Cycles, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scratchpad banking (1B.1):")
	fmt.Printf("  monolithic %0.f -> partitioned %.0f -> clustered %.0f (%.1f%% vs partitioned)\n",
		float64(rep.MonolithicE), float64(rep.PartitionedE), float64(rep.ClusteredE),
		rep.SavingVsPartitioned())
	fmt.Printf("  banks: %v\n\n", rep.ClusteredPartition)

	// --- 2. Write-back compression on the D-cache boundary.
	cfg := cache.Config{Sets: 128, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true}
	traffic, stats, err := compress.MeasureTraffic(app.Trace, cfg, compress.Differential{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("write-back compression (1B.2):")
	fmt.Printf("  D-cache hit rate %.3f, boundary %d lines\n", stats.HitRate(), traffic.Lines)
	fmt.Printf("  boundary bytes %d -> %d (%.1f%% saved)\n\n",
		traffic.RawBytes, traffic.CompressedBytes, 100*traffic.Saving())

	// --- 3. Layer assignment across scratchpad / SRAM / off-chip.
	infos := hier.Profile(app.Trace, regions)
	layers := hier.DefaultLayers(energy.DefaultMemoryModel())
	off, static, lifetime, err := hier.Evaluate(infos, layers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layer assignment (10F.1):")
	fmt.Printf("  all off-chip %.0f, static greedy %.0f, lifetime-aware %.0f (%.2fx of static)\n",
		float64(off), float64(static), float64(lifetime), float64(lifetime)/float64(static))
	asg, err := hier.Assign(infos, layers, true)
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range infos {
		fmt.Printf("  %-14s %6d B  %7d accesses -> %s\n",
			in.Name, in.Size, in.Accesses(), layers[asg.Layer[in.Name]].Name)
	}
}
