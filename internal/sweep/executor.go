package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lpmem/internal/runner"
)

// Outcome is the evaluation of one point: metrics or an error, plus
// whether the result came from the store instead of executing.
type Outcome struct {
	Point   Point
	Metrics Metrics
	Err     error
	Cached  bool
}

// Result is a completed (possibly partially failed) sweep over one
// adapter, outcomes in sorted point order.
type Result struct {
	Adapter  string
	Outcomes []Outcome
	// Total = Evaluated + Cached + Failed. Evaluated counts points
	// executed by this run, Cached points served from the store, Failed
	// points whose evaluation errored (cancelled points fail with the
	// context's error).
	Total, Evaluated, Cached, Failed int
}

// Progress is one executor progress report, emitted after every batch.
type Progress struct {
	// Batch/Batches identify the completed shard.
	Batch, Batches int
	// Done counts settled points (cached + evaluated + failed) so far.
	Done, Total int
	// Cached and Failed are running totals.
	Cached, Failed int
}

// Config tunes one executor run.
type Config struct {
	// Workers bounds the runner pool; <= 0 means GOMAXPROCS.
	Workers int
	// BatchSize is the shard width: points are submitted to the pool in
	// batches this large, and the store is flushed and progress reported
	// at every batch boundary. <= 0 means 32.
	BatchSize int
	// Timeout bounds each point evaluation; 0 means none. For a
	// ColumnAdapter, the first job of a column to run evaluates the
	// whole column, so its deadline covers the column's shared work.
	Timeout time.Duration
	// Store, when non-nil, serves already-evaluated points and persists
	// new ones (the resume mechanism). A nil store recomputes everything.
	Store *Store
	// OnProgress, when non-nil, streams per-batch progress.
	OnProgress func(Progress)
	// WrapJob, when non-nil, decorates every point evaluation — the
	// fault-injection harness hooks sweeps here with faultinject.Wrap.
	WrapJob func(key string, run func(ctx context.Context) (Metrics, error)) func(ctx context.Context) (Metrics, error)
}

// Run evaluates the points against the adapter: validates them, sorts
// them into canonical order, serves what the store already holds, shards
// the rest into batches on a bounded runner pool, and persists every
// fresh success back to the store as its batch completes (so a killed or
// cancelled sweep resumes from the last flushed batch).
//
// A point evaluation error does not abort the sweep — it is reported in
// that point's Outcome and the sweep continues (the same degradation
// contract as the experiment batches). Run itself errors only on
// malformed input or a failing store.
func Run(ctx context.Context, ad Adapter, pts []Point, cfg Config) (*Result, error) {
	space := ad.Space()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}

	// Validate, deduplicate and sort into canonical order.
	sorted := make([]Point, 0, len(pts))
	seen := make(map[string]bool, len(pts))
	for _, p := range pts {
		if err := space.Contains(p); err != nil {
			return nil, err
		}
		c := p.Canonical()
		if seen[c] {
			continue
		}
		seen[c] = true
		sorted = append(sorted, p)
	}
	SortPoints(space.Axes, sorted)

	res := &Result{Adapter: ad.Name(), Total: len(sorted)}
	res.Outcomes = make([]Outcome, len(sorted))

	// Merge what peer replicas appended to a shared store since it was
	// opened, then serve what it holds; collect the rest.
	if cfg.Store != nil {
		if err := cfg.Store.Refresh(); err != nil {
			return nil, err
		}
	}
	var pending []int
	for i, p := range sorted {
		key := Key(ad.Name(), StoreVersion, p)
		if cfg.Store != nil {
			if rec, ok := cfg.Store.Get(key); ok {
				res.Outcomes[i] = Outcome{Point: p, Metrics: rec.Metrics, Cached: true}
				res.Cached++
				continue
			}
		}
		pending = append(pending, i)
	}

	evals := evaluators(ad, sorted, pending)
	eng := runner.New[Metrics](runner.Options{
		Workers: cfg.Workers,
		Timeout: cfg.Timeout,
		// The store is the cache; the engine's own cache would hide
		// store bookkeeping and double-memoize.
		NoCache: true,
	})

	batches := (len(pending) + cfg.BatchSize - 1) / cfg.BatchSize
	done := res.Cached
	for b := 0; b < batches; b++ {
		lo, hi := b*cfg.BatchSize, (b+1)*cfg.BatchSize
		if hi > len(pending) {
			hi = len(pending)
		}
		batch := pending[lo:hi]

		if err := ctx.Err(); err != nil {
			// Cancelled between batches: report every unstarted point.
			for _, i := range pending[lo:] {
				res.Outcomes[i] = Outcome{Point: sorted[i], Err: err}
				res.Failed++
			}
			done = res.Total
			break
		}

		jobs := make([]runner.Job[Metrics], len(batch))
		for j, i := range batch {
			key := Key(ad.Name(), StoreVersion, sorted[i])
			eval := evals[lo+j]
			run := func(ctx context.Context) (Metrics, error) {
				if err := ctx.Err(); err != nil {
					return Metrics{}, err
				}
				return eval()
			}
			if cfg.WrapJob != nil {
				run = cfg.WrapJob(key, run)
			}
			jobs[j] = runner.Job[Metrics]{ID: key, Run: run}
		}
		outs := eng.Run(ctx, jobs)

		// Persist the batch's successes before reporting progress, so
		// resume never observes progress the store doesn't back.
		for j, i := range batch {
			o := outs[j]
			res.Outcomes[i] = Outcome{Point: sorted[i], Metrics: o.Value, Err: o.Err}
			if o.Err != nil {
				res.Failed++
				continue
			}
			res.Evaluated++
			if cfg.Store != nil {
				if err := cfg.Store.Put(RecordFor(ad.Name(), sorted[i], o.Value)); err != nil {
					return nil, fmt.Errorf("sweep: persisting batch %d: %w", b+1, err)
				}
			}
		}
		done += len(batch)
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Batch: b + 1, Batches: batches,
				Done: done, Total: res.Total,
				Cached: res.Cached, Failed: res.Failed,
			})
		}
	}
	if batches == 0 && cfg.OnProgress != nil {
		cfg.OnProgress(Progress{Batches: 0, Done: done, Total: res.Total, Cached: res.Cached})
	}
	return res, nil
}

// evaluators returns the evaluation each pending point's job runs: Run,
// or for a ColumnAdapter its element of the point's column. The pending
// points of one column share a sync.OnceValues over RunColumn, so the
// first of its jobs to run computes the whole column and the others
// wait for it. A column is shared across batches, because the canonical
// order can spread it over all of them (the banks grid puts a block
// size's budgets seven points apart). Jobs stay per point, so WrapJob,
// progress, store flushes and per-point outcomes are as for any
// adapter, and a RunColumn error or panic fails that column's points
// only: OnceValues repeats it to every caller.
func evaluators(ad Adapter, sorted []Point, pending []int) []func() (Metrics, error) {
	if len(pending) == 0 {
		return nil
	}
	evals := make([]func() (Metrics, error), len(pending))
	ca, ok := ad.(ColumnAdapter)
	if !ok {
		for j, i := range pending {
			p := sorted[i]
			evals[j] = func() (Metrics, error) { return ad.Run(p) }
		}
		return evals
	}
	type column struct {
		pts []Point
		run func() ([]Metrics, error)
	}
	axis := ca.ColumnAxis()
	cols := make(map[string]*column)
	for j, i := range pending {
		key := sorted[i].columnKey(axis)
		c := cols[key]
		if c == nil {
			// c.pts is complete before any job runs: the jobs start
			// after evaluators returns.
			c = &column{}
			c.run = sync.OnceValues(func() ([]Metrics, error) { return ca.RunColumn(c.pts) })
			cols[key] = c
		}
		k := len(c.pts)
		c.pts = append(c.pts, sorted[i])
		evals[j] = func() (Metrics, error) {
			ms, err := c.run()
			if err != nil {
				return Metrics{}, err
			}
			return ms[k], nil
		}
	}
	return evals
}
