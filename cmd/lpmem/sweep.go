package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"lpmem/internal/stats"
	"lpmem/internal/sweep"
)

// sweepEnvelope is the `lpmem sweep -json` wire format. It carries no
// wall-clock field on purpose: a sweep's JSON output is a pure function
// of (space, points, seed, store state), so it can be golden-tested
// byte-for-byte like the experiment envelopes.
type sweepEnvelope struct {
	Space       string       `json:"space"`
	Version     string       `json:"version"`
	Objectives  []string     `json:"objectives"`
	Axes        []string     `json:"axes"`
	Total       int          `json:"total"`
	Evaluated   int          `json:"evaluated"`
	Cached      int          `json:"cached"`
	Failed      int          `json:"failed"`
	Frontier    *stats.Table `json:"frontier"`
	Sensitivity *stats.Table `json:"sensitivity"`
	Results     *stats.Table `json:"results"`
}

// runSweep implements `lpmem sweep`: enumerate or sample the named
// design space, evaluate it in parallel (incrementally against -resume's
// store), and report the Pareto frontier and per-axis sensitivity.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	space := fs.String("space", "banks", "design space to sweep (see -list)")
	points := fs.Int("points", 0, "Latin-hypercube sample size (0 = full grid)")
	seed := fs.Int64("seed", 1, "sampling seed (only used with -points)")
	resume := fs.String("resume", "", "JSONL result store: reuse evaluated points, append new ones")
	pareto := fs.Bool("pareto", false, "print only the Pareto frontier table")
	objectives := fs.String("objectives", "", "comma list of frontier objectives (default energy_pj,latency,area)")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 0, "points per scheduling batch (0 = 32)")
	timeout := fs.Duration("timeout", 0, "per-point deadline (0 = none); a column space's first job carries its whole column")
	jsonOut := fs.Bool("json", false, "emit the sweep envelope as JSON")
	list := fs.Bool("list", false, "list available design spaces and exit")
	verbose := fs.Bool("v", false, "stream per-batch progress to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, ad := range sweep.Adapters() {
			sp := ad.Space()
			fmt.Fprintf(stdout, "%-8s %4d grid points, %d axes  %s\n",
				ad.Name(), sp.GridSize(), len(sp.Axes), ad.Describe())
			for _, a := range sp.Axes {
				switch a.Kind {
				case sweep.EnumAxis:
					fmt.Fprintf(stdout, "           %-8s enum  %v\n", a.Name, a.Values)
				default:
					fmt.Fprintf(stdout, "           %-8s %-5s [%d, %d]\n", a.Name, a.Kind, a.Min, a.Max)
				}
			}
			for _, c := range sp.Constraints {
				fmt.Fprintf(stdout, "           constraint: %s\n", c.Name)
			}
		}
		return 0
	}

	ad, err := sweep.ByName(*space)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	objs, err := sweep.ParseObjectives(*objectives)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sp := ad.Space()
	var pts []sweep.Point
	if *points > 0 {
		pts, err = sp.Sample(*points, *seed)
	} else {
		pts, err = sp.Grid()
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var store *sweep.Store
	if *resume != "" {
		store, err = sweep.OpenStore(*resume)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() { _ = store.Close() }()
		if n := store.Skipped(); n > 0 {
			fmt.Fprintf(stderr, "sweep: store %s: skipped %d torn/unparseable line(s)\n", *resume, n)
		}
	}

	cfg := sweep.Config{
		Workers:   *parallel,
		BatchSize: *batch,
		Timeout:   *timeout,
		Store:     store,
	}
	if *verbose {
		cfg.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(stderr, "sweep: batch %d/%d, %d/%d points (cached %d, failed %d)\n",
				p.Batch, p.Batches, p.Done, p.Total, p.Cached, p.Failed)
		}
	}
	res, err := sweep.Run(context.Background(), ad, pts, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	front := sweep.Frontier(res.Outcomes, objs)
	frontTable := sweep.FrontierTable(sp.Axes, front, objs)
	summary := fmt.Sprintf("space %s: %d points (evaluated %d, cached %d, failed %d), frontier %d",
		ad.Name(), res.Total, res.Evaluated, res.Cached, res.Failed, len(front))

	switch {
	case *jsonOut:
		axes := make([]string, len(sp.Axes))
		for i, a := range sp.Axes {
			axes[i] = a.Name
		}
		env := sweepEnvelope{
			Space:       ad.Name(),
			Version:     sweep.StoreVersion,
			Objectives:  objs,
			Axes:        axes,
			Total:       res.Total,
			Evaluated:   res.Evaluated,
			Cached:      res.Cached,
			Failed:      res.Failed,
			Frontier:    frontTable,
			Sensitivity: sweep.Sensitivity(sp.Axes, res.Outcomes),
			Results:     sweep.ResultsTable(sp.Axes, res.Outcomes),
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(env); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case *pareto:
		// Frontier only on stdout — the CI resume gate byte-diffs this.
		fmt.Fprintln(stderr, summary)
		fmt.Fprint(stdout, frontTable.String())
	default:
		fmt.Fprintln(stdout, summary)
		fmt.Fprintf(stdout, "\nPareto frontier over %v:\n", objs)
		fmt.Fprint(stdout, frontTable.String())
		fmt.Fprintln(stdout, "\nPer-axis sensitivity:")
		fmt.Fprint(stdout, sweep.Sensitivity(sp.Axes, res.Outcomes).String())
	}
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "lpmem: %d of %d sweep points failed\n", res.Failed, res.Total)
		return 1
	}
	return 0
}
