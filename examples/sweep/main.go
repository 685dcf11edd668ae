// Sweep: walk a design space the way the DATE'03 authors did.
//
// The experiments replay the papers' chosen designs; this example asks
// the question that preceded those choices — across every bank count
// and block size, which memory partitions are actually worth building?
// It sweeps the full banks space in parallel, persists every evaluated
// point to a JSONL store, extracts the energy/latency/area Pareto
// frontier, and then re-runs the sweep to show that a warm store makes
// the second pass free.
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"lpmem/internal/sweep"
)

func main() {
	ad, err := sweep.ByName("banks")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sp := ad.Space()
	pts, err := sp.Grid()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("space %q: %d axes, %d grid points\n", ad.Name(), len(sp.Axes), len(pts))

	dir, err := os.MkdirTemp("", "lpmem-sweep")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	storePath := filepath.Join(dir, "store.jsonl")

	// Pass 1: cold store, every point executes on the worker pool.
	res := mustRun(ad, pts, storePath)
	fmt.Printf("cold run:   evaluated %d, cached %d\n", res.Evaluated, res.Cached)

	// Pass 2: warm store, nothing executes — the incremental contract.
	res = mustRun(ad, pts, storePath)
	fmt.Printf("resume run: evaluated %d, cached %d\n\n", res.Evaluated, res.Cached)

	objectives := sweep.MetricNames()
	front := sweep.Frontier(res.Outcomes, objectives)
	table := sweep.FrontierTable(sp.Axes, front, objectives)
	fmt.Printf("Pareto frontier over %v (%d of %d points):\n", objectives, len(front), res.Total)
	fmt.Print(table.String())

	fmt.Println("\nPer-axis sensitivity (which knob matters):")
	fmt.Print(sweep.Sensitivity(sp.Axes, res.Outcomes).String())
}

// mustRun sweeps the points against the store at path, reopening it so
// each pass sees exactly what the previous one flushed.
func mustRun(ad sweep.Adapter, pts []sweep.Point, path string) *sweep.Result {
	store, err := sweep.OpenStore(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() { _ = store.Close() }()
	res, err := sweep.Run(context.Background(), ad, pts, sweep.Config{Store: store})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}
