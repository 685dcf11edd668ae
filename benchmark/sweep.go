package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

	"lpmem/internal/stats"
	"lpmem/internal/sweep"
)

// sweepSpaces are the four trace-driven design spaces, in pass order.
var sweepSpaces = []string{"cache", "memhier", "nuca", "banks"}

// sweepDigest is the SHA-256 of every cold outcome of the four grids
// (see digestOutcomes), recorded from the tree the benchmark was added
// on. A model change that moves any metric bit changes it.
const sweepDigest = "a23d526866515854acd2a13c72f075d83b9a8a2dc5729299a26d81c390219ea7"

// sweepWorkers bounds the pool at the host's two cores.
const sweepWorkers = 2

type space struct {
	name string
	ad   sweep.Adapter
	grid []sweep.Point
}

// sweeper runs cold passes and resumes over the four grids.
type sweeper struct {
	spaces []space
}

// newSweep is the sweep workload's set-up: it resolves the grids and
// builds every reference trace the adapters construct lazily, by
// evaluating one point per trace (one per core count for nuca).
func newSweep() (*sweeper, error) {
	s := &sweeper{}
	for _, name := range sweepSpaces {
		ad, err := sweep.ByName(name)
		if err != nil {
			return nil, err
		}
		grid, err := ad.Space().Grid()
		if err != nil {
			return nil, err
		}
		// cache, memhier and banks share one reference trace; nuca
		// builds one per core count (cores reads 0 outside nuca).
		warmed := map[int]bool{}
		for _, p := range grid {
			if cores := p.Int("cores"); !warmed[cores] {
				warmed[cores] = true
				if _, err := ad.Run(p); err != nil {
					return nil, fmt.Errorf("warming %s: %w", name, err)
				}
			}
		}
		s.spaces = append(s.spaces, space{name: name, ad: ad, grid: grid})
	}
	return s, nil
}

// points is the total grid size.
func (s *sweeper) points() int {
	n := 0
	for _, sp := range s.spaces {
		n += len(sp.grid)
	}
	return n
}

// sweepCycle is one cold pass plus resume.
type sweepCycle struct {
	cold, open, warm time.Duration
	cached, total    int
	// traced runs only: worker queue wait and busy time, jobs run.
	queueWait, busy time.Duration
	jobs            int
}

// cycle runs one cold pass into a fresh store file at path, then reopens
// the file and runs the same grids again, every point served from the
// store. Resume outcomes must equal cold outcomes bit for bit, and cold
// outcomes must match sweepDigest.
func (s *sweeper) cycle(b *bench, path string, tr *tracer) (sweepCycle, error) {
	var c sweepCycle
	ctx := context.Background()
	store, err := sweep.OpenStore(path)
	if err != nil {
		return c, err
	}
	var jt jobTimes
	cold := make([][]sweep.Outcome, len(s.spaces))
	settle()
	root := tr.begin("sweep.cold", 0, "")
	start := time.Now()
	for i, sp := range s.spaces {
		res, err := sp.coldRun(ctx, store, tr, root, &jt)
		if err != nil {
			_ = store.Close()
			return c, err
		}
		cold[i] = res.Outcomes
		for _, o := range res.Outcomes {
			b.check("sweep cold "+sp.name+" "+o.Point.Canonical(), o.Err)
		}
	}
	c.cold = time.Since(start)
	tr.end(root)
	if err := store.Close(); err != nil {
		return c, err
	}
	c.queueWait, c.busy, c.jobs = time.Duration(jt.queueWait.Load()), time.Duration(jt.busy.Load()), int(jt.jobs.Load())

	settle()
	root = tr.begin("sweep.resume", 0, "")
	start = time.Now()
	id := tr.begin("sweep.store.open", root, "")
	store, err = sweep.OpenStore(path)
	tr.end(id)
	c.open = time.Since(start)
	if err != nil {
		return c, err
	}
	defer store.Close()
	warm := make([]*sweep.Result, len(s.spaces))
	for i, sp := range s.spaces {
		id := tr.begin("sweep.warm", root, sp.name)
		warm[i], err = sweep.Run(ctx, sp.ad, sp.grid, sweep.Config{Workers: sweepWorkers, Store: store})
		tr.end(id)
		if err != nil {
			return c, err
		}
	}
	c.warm = time.Since(start) - c.open
	tr.end(root)

	for i, sp := range s.spaces {
		c.cached += warm[i].Cached
		c.total += warm[i].Total
		for j, o := range warm[i].Outcomes {
			var err error
			if !o.Cached || o.Err != nil || !sameOutcome(o, cold[i][j]) {
				err = fmt.Errorf("resume outcome %+v differs from cold %+v", o, cold[i][j])
			}
			b.check("sweep resume "+sp.name+" "+o.Point.Canonical(), err)
		}
	}
	var digestErr error
	if got := digestOutcomes(s.spaces, cold); got != sweepDigest {
		digestErr = fmt.Errorf("cold outcome digest %s, want %s", got, sweepDigest)
	}
	b.check("sweep cold digest", digestErr)
	return c, nil
}

// jobTimes accumulates what the WrapJob hook observes across workers.
type jobTimes struct {
	queueWait, busy, jobs atomic.Int64
}

// coldRun evaluates the space's grid into store. Traced, it wraps the
// adapter in a timing span, times every runner job from its batch's
// submission through WrapJob, and marks batch barriers via OnProgress.
func (sp space) coldRun(ctx context.Context, store *sweep.Store, tr *tracer, parent int, jt *jobTimes) (*sweep.Result, error) {
	cfg := sweep.Config{Workers: sweepWorkers, Store: store}
	if tr == nil {
		return sweep.Run(ctx, sp.ad, sp.grid, cfg)
	}
	spanID := tr.begin("sweep."+sp.name, parent, "")
	defer tr.end(spanID)
	cfg.WrapJob = func(key string, run func(context.Context) (sweep.Metrics, error)) func(context.Context) (sweep.Metrics, error) {
		submitted := time.Now()
		return func(ctx context.Context) (sweep.Metrics, error) {
			started := time.Now()
			jt.queueWait.Add(int64(started.Sub(submitted)))
			id := tr.begin("runner.job", spanID, key)
			defer func() {
				tr.end(id)
				jt.busy.Add(int64(time.Since(started)))
				jt.jobs.Add(1)
			}()
			return run(ctx)
		}
	}
	batch := tr.begin("sweep.batch", spanID, "")
	cfg.OnProgress = func(p sweep.Progress) {
		tr.end(batch)
		batch = 0
		if p.Batch < p.Batches {
			batch = tr.begin("sweep.batch", spanID, "")
		}
	}
	res, err := sweep.Run(ctx, timedAdapter{Adapter: sp.ad, tr: tr, parent: spanID}, sp.grid, cfg)
	if batch != 0 {
		tr.end(batch)
	}
	return res, err
}

// sameOutcome compares point and metrics bit for bit.
func sameOutcome(a, b sweep.Outcome) bool {
	return a.Point.Canonical() == b.Point.Canonical() &&
		math.Float64bits(a.Metrics.EnergyPJ) == math.Float64bits(b.Metrics.EnergyPJ) &&
		math.Float64bits(a.Metrics.Latency) == math.Float64bits(b.Metrics.Latency) &&
		math.Float64bits(a.Metrics.Area) == math.Float64bits(b.Metrics.Area)
}

// digestOutcomes hashes every outcome's space, point and metric bits.
func digestOutcomes(spaces []space, outs [][]sweep.Outcome) string {
	h := sha256.New()
	for i, sp := range spaces {
		for _, o := range outs[i] {
			fmt.Fprintf(h, "%s|%s|%x|%x|%x\n", sp.name, o.Point.Canonical(),
				math.Float64bits(o.Metrics.EnergyPJ), math.Float64bits(o.Metrics.Latency), math.Float64bits(o.Metrics.Area))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timedAdapter records a span around every Adapter.Run.
type timedAdapter struct {
	sweep.Adapter
	tr     *tracer
	parent int
}

func (a timedAdapter) Run(p sweep.Point) (sweep.Metrics, error) {
	id := a.tr.begin("adapter."+a.Name(), a.parent, "")
	defer a.tr.end(id)
	return a.Adapter.Run(p)
}

// measureSweep is the untraced sweep workload.
func measureSweep(b *bench, dir string) error {
	s, err := newSweep()
	if err != nil {
		return err
	}
	var colds, resumes []float64
	for reps := repeater(b.cfg.seconds); reps.next(); {
		c, err := s.cycle(b, filepath.Join(dir, fmt.Sprintf("sweep-%d.jsonl", reps.n)), nil)
		if err != nil {
			return err
		}
		colds = append(colds, c.cold.Seconds())
		resumes = append(resumes, ms(c.open+c.warm))
	}
	cold, resume := stats.Median(colds), stats.Median(resumes)
	pps := float64(s.points()) / cold
	b.set("cold_s", cold, "s")
	b.set("ops_per_s", pps, "1/s")
	b.set("latency_ms", resume, "ms")
	fmt.Fprintf(b.report, "points_per_s %.1f points/s (%d points over the median cold pass; passes %s s)\n",
		pps, s.points(), list(colds))
	fmt.Fprintf(b.report, "resume_ms %.3f ms (median; resumes %s ms)\n", resume, list(resumes))
	return nil
}
