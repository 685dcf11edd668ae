package sweep

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// batches this large, and each batch is a barrier: its successes
	// reach the store in one Put (one write to the file) before its
	// progress report, and the next batch starts after both. Within a
	// batch, every column's first point is dispatched before any
	// column's second. <= 0 means 32.
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

	// Validate, deduplicate and sort into canonical order. Each point's
	// canonical form is derived once, and from it its store key, which
	// serves the store lookup, the job ID and the record.
	check := space.validator()
	type point struct {
		p         Point
		canonical string
	}
	uniq := make([]point, 0, len(pts))
	seen := make(map[string]bool, len(pts))
	for _, p := range pts {
		c, err := check.canonical(p)
		if err != nil {
			return nil, err
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		uniq = append(uniq, point{p: p, canonical: c})
	}
	order := pointOrder(space.Axes)
	slices.SortStableFunc(uniq, func(a, b point) int { return order(a.p, b.p) })
	name := ad.Name()
	sorted := make([]Point, len(uniq))
	keys := make([]string, len(uniq))
	for i, u := range uniq {
		sorted[i], keys[i] = u.p, Key(name, StoreVersion, u.canonical)
	}

	res := &Result{Adapter: name, Total: len(sorted)}
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
		if cfg.Store != nil {
			if m, ok := cfg.Store.Get(keys[i]); ok {
				res.Outcomes[i] = Outcome{Point: p, Metrics: m, Cached: true}
				res.Cached++
				continue
			}
		}
		pending = append(pending, i)
	}

	evals, pos := evaluators(ad, sorted, pending)
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

		// Dispatch the batch by position in column, stably: every
		// column's first point starts before any column's second, so
		// idle workers start other columns instead of waiting on one.
		dispatch := make([]int, len(batch))
		for j := range dispatch {
			dispatch[j] = j
		}
		slices.SortStableFunc(dispatch, func(x, y int) int { return cmp.Compare(pos[lo+x], pos[lo+y]) })
		jobs := make([]runner.Job[Metrics], len(batch))
		for k, j := range dispatch {
			key, eval := keys[batch[j]], evals[lo+j]
			run := func(ctx context.Context) (Metrics, error) {
				if err := ctx.Err(); err != nil {
					return Metrics{}, err
				}
				return eval()
			}
			if cfg.WrapJob != nil {
				run = cfg.WrapJob(key, run)
			}
			jobs[k] = runner.Job[Metrics]{ID: key, Run: run}
		}
		outs := make([]runner.Outcome[Metrics], len(batch))
		for k, o := range eng.Run(ctx, jobs) {
			outs[dispatch[k]] = o
		}

		// Persist the batch's successes in one write before reporting
		// progress, so resume never observes progress the store doesn't
		// back.
		var recs []Record
		for j, i := range batch {
			o := outs[j]
			res.Outcomes[i] = Outcome{Point: sorted[i], Metrics: o.Value, Err: o.Err}
			if o.Err != nil {
				res.Failed++
				continue
			}
			res.Evaluated++
			if cfg.Store != nil {
				recs = append(recs, newRecord(keys[i], name, sorted[i], o.Value))
			}
		}
		if cfg.Store != nil {
			if err := cfg.Store.Put(recs...); err != nil {
				return nil, fmt.Errorf("sweep: persisting batch %d: %w", b+1, err)
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

// evaluators returns the evaluation each pending point's job runs, and
// the point's position among its column's pending points (0 for every
// point of an adapter without columns). A job runs Run, or for a
// ColumnAdapter its element of the point's column. The pending points of
// one column share a sync.OnceValues over RunColumn, so the first of its
// jobs to run computes the whole column and the others wait for it. A
// column is shared across batches, because the canonical order can
// spread it over all of them (the banks grid puts a block size's budgets
// seven points apart). Jobs stay per point, so WrapJob, progress, store
// flushes and per-point outcomes are as for any adapter, and a RunColumn
// error or panic fails that column's points only: OnceValues repeats it
// to every caller.
func evaluators(ad Adapter, sorted []Point, pending []int) ([]func() (Metrics, error), []int) {
	if len(pending) == 0 {
		return nil, nil
	}
	evals := make([]func() (Metrics, error), len(pending))
	pos := make([]int, len(pending))
	ca, ok := ad.(ColumnAdapter)
	if !ok {
		for j, i := range pending {
			p := sorted[i]
			evals[j] = func() (Metrics, error) { return ad.Run(p) }
		}
		return evals, pos
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
		pos[j] = k
		evals[j] = func() (Metrics, error) {
			ms, err := c.run()
			if err != nil {
				return Metrics{}, err
			}
			return ms[k], nil
		}
	}
	return evals, pos
}
