package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func job(id string, fn func(ctx context.Context) (int, error)) Job[int] {
	return Job[int]{ID: id, Key: id + "@test", Run: fn}
}

func constJob(id string, v int) Job[int] {
	return job(id, func(context.Context) (int, error) { return v, nil })
}

// TestRunOrderAndValues: outcomes come back in input order with the
// values the jobs produced.
func TestRunOrderAndValues(t *testing.T) {
	e := New[int](Options{Workers: 4, NoCache: true})
	var jobs []Job[int]
	for i := 0; i < 20; i++ {
		jobs = append(jobs, constJob(fmt.Sprintf("J%d", i), i*i))
	}
	out := e.Run(context.Background(), jobs)
	if len(out) != 20 {
		t.Fatalf("got %d outcomes", len(out))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("J%d: %v", i, o.Err)
		}
		if o.ID != fmt.Sprintf("J%d", i) || o.Value != i*i {
			t.Fatalf("outcome %d = %+v, want J%d/%d", i, o, i, i*i)
		}
	}
	m := e.Metrics()
	if m.Executed != 20 || m.Successes != 20 || m.Failures != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestPoolSizing: a pool of N workers never runs more than N jobs at
// once, and defaults to at least one worker.
func TestPoolSizing(t *testing.T) {
	const workers = 3
	e := New[int](Options{Workers: workers, NoCache: true})
	var cur, peak atomic.Int64
	var jobs []Job[int]
	for i := 0; i < 24; i++ {
		jobs = append(jobs, job(fmt.Sprintf("J%d", i), func(context.Context) (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 0, nil
		}))
	}
	e.Run(context.Background(), jobs)
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, workers)
	}
	if def := New[int](Options{}); def.Workers() < 1 {
		t.Fatalf("default pool size %d", def.Workers())
	}
}

// TestCancellationMidBatch: cancelling the batch context stops dispatch;
// unstarted jobs report the context error instead of running.
func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New[int](Options{Workers: 1, NoCache: true})
	var ran atomic.Int64
	release := make(chan struct{})
	var jobs []Job[int]
	jobs = append(jobs, job("J0", func(context.Context) (int, error) {
		ran.Add(1)
		cancel()
		close(release)
		return 1, nil
	}))
	for i := 1; i < 10; i++ {
		jobs = append(jobs, job(fmt.Sprintf("J%d", i), func(context.Context) (int, error) {
			ran.Add(1)
			return 1, nil
		}))
	}
	out := e.Run(ctx, jobs)
	<-release
	// The first job may be reported as completed or as cancelled (its
	// own cancel() races the result delivery); what matters is that the
	// remaining jobs were not dispatched.
	var cancelled int
	for _, o := range out[1:] {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job observed the cancellation")
	}
	if got := ran.Load(); got == 10 {
		t.Fatal("cancellation did not stop dispatch")
	}
	if m := e.Metrics(); m.Cancelled == 0 {
		t.Fatalf("metrics must count cancellations: %+v", m)
	}
}

// TestCacheDeterminism: the second run of the same keys is served
// entirely from cache — same values, zero new executions.
func TestCacheDeterminism(t *testing.T) {
	e := New[int](Options{Workers: 4})
	var execs atomic.Int64
	mk := func() []Job[int] {
		var jobs []Job[int]
		for i := 0; i < 8; i++ {
			i := i
			jobs = append(jobs, job(fmt.Sprintf("J%d", i), func(context.Context) (int, error) {
				execs.Add(1)
				return 100 + i, nil
			}))
		}
		return jobs
	}
	first := e.Run(context.Background(), mk())
	if got := execs.Load(); got != 8 {
		t.Fatalf("first batch executed %d jobs", got)
	}
	second := e.Run(context.Background(), mk())
	if got := execs.Load(); got != 8 {
		t.Fatalf("second batch re-executed: %d total executions", got)
	}
	for i := range first {
		if first[i].Value != second[i].Value {
			t.Fatalf("cache returned a different value for %s", first[i].ID)
		}
		if first[i].Cached || !second[i].Cached {
			t.Fatalf("cached flags wrong: first=%v second=%v", first[i].Cached, second[i].Cached)
		}
	}
	m := e.Metrics()
	if m.CacheHits != 8 || m.CacheMisses != 8 {
		t.Fatalf("hit/miss accounting wrong: %+v", m)
	}
	if e.CacheLen() != 8 {
		t.Fatalf("cache holds %d entries", e.CacheLen())
	}
}

// TestPanicContainment: a panicking job becomes a structured error and
// the rest of the batch completes normally.
func TestPanicContainment(t *testing.T) {
	e := New[int](Options{Workers: 2, NoCache: true})
	jobs := []Job[int]{
		constJob("ok1", 1),
		job("boom", func(context.Context) (int, error) { panic("kaboom") }),
		constJob("ok2", 2),
	}
	out := e.Run(context.Background(), jobs)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	var pe *PanicError
	if !errors.As(out[1].Err, &pe) {
		t.Fatalf("want PanicError, got %v", out[1].Err)
	}
	if pe.ID != "boom" || !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("panic error incomplete: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost the stack trace")
	}
	if m := e.Metrics(); m.Panics != 1 || m.Failures != 1 || m.Successes != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestErrorsNotCached: a failed job is retried on the next batch rather
// than serving the error from cache.
func TestErrorsNotCached(t *testing.T) {
	e := New[int](Options{Workers: 1})
	var n atomic.Int64
	mk := func() []Job[int] {
		return []Job[int]{job("flaky", func(context.Context) (int, error) {
			if n.Add(1) == 1 {
				return 0, errors.New("transient")
			}
			return 7, nil
		})}
	}
	if out := e.Run(context.Background(), mk()); out[0].Err == nil {
		t.Fatal("first run should fail")
	}
	out := e.Run(context.Background(), mk())
	if out[0].Err != nil || out[0].Value != 7 || out[0].Cached {
		t.Fatalf("retry not executed: %+v", out[0])
	}
}

// TestTimeout: a job that overruns Options.Timeout is reported as
// deadline-exceeded while fast jobs in the same batch succeed.
func TestTimeout(t *testing.T) {
	e := New[int](Options{Workers: 2, Timeout: 20 * time.Millisecond, NoCache: true})
	block := make(chan struct{})
	defer close(block)
	jobs := []Job[int]{
		job("stuck", func(ctx context.Context) (int, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return 0, nil
		}),
		constJob("fast", 5),
	}
	out := e.Run(context.Background(), jobs)
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Fatalf("stuck job: want deadline exceeded, got %v", out[0].Err)
	}
	if out[1].Err != nil || out[1].Value != 5 {
		t.Fatalf("fast job: %+v", out[1])
	}
}

// TestInflightDedup: concurrent batches containing the same key execute
// the job once; the joiner gets the same value marked as cached.
func TestInflightDedup(t *testing.T) {
	e := New[int](Options{Workers: 2})
	var execs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slow := job("shared", func(context.Context) (int, error) {
		execs.Add(1)
		close(started)
		<-release
		return 42, nil
	})
	var wg sync.WaitGroup
	results := make([][]Outcome[int], 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = e.Run(context.Background(), []Job[int]{slow})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[1] = e.Run(context.Background(), []Job[int]{slow})
	}()
	// Give the second batch a moment to reach the in-flight wait, then
	// let the single execution finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("job executed %d times, want 1", got)
	}
	for i, r := range results {
		if r[0].Err != nil || r[0].Value != 42 {
			t.Fatalf("batch %d outcome: %+v", i, r[0])
		}
	}
	if !results[0][0].Cached && !results[1][0].Cached {
		t.Fatal("one of the two outcomes must be a dedup hit")
	}
}

// TestLoadTier: a Load hit settles the job as a cached success without
// running it and fills the memory cache; identical concurrent jobs share
// one Load and at most one Run; NoCache engines and keyless jobs never
// consult Load.
func TestLoadTier(t *testing.T) {
	e := New[int](Options{Workers: 2})
	var loads atomic.Int64
	hit := job("stored", func(context.Context) (int, error) {
		t.Error("Run called despite a Load hit")
		return 0, nil
	})
	hit.Load = func() (int, bool) {
		loads.Add(1)
		return 7, true
	}
	for i := 0; i < 2; i++ {
		out := e.Run(context.Background(), []Job[int]{hit})
		if out[0].Err != nil || out[0].Value != 7 || !out[0].Cached || out[0].Duration != 0 {
			t.Fatalf("run %d: %+v", i, out[0])
		}
	}
	if loads.Load() != 1 {
		t.Fatalf("Load called %d times; the second run must be a memory hit", loads.Load())
	}
	if m := e.Metrics(); m.CacheHits != 2 || m.CacheMisses != 0 || m.Executed != 0 || m.Successes != 2 {
		t.Fatalf("metrics = %+v", m)
	}

	// Concurrent identical jobs: Load blocks until every job has been
	// submitted, so all but the slot holder must join its flight.
	const n = 4
	e = New[int](Options{Workers: 1})
	loads.Store(0)
	var runs atomic.Int64
	gate := make(chan struct{})
	shared := job("shared", func(context.Context) (int, error) {
		runs.Add(1)
		return 42, nil
	})
	shared.Load = func() (int, bool) {
		loads.Add(1)
		<-gate
		return 0, false
	}
	outs := make([]Outcome[int], n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = e.Run(context.Background(), []Job[int]{shared})[0]
		}(i)
	}
	for e.Metrics().Submitted < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if loads.Load() != 1 || runs.Load() != 1 {
		t.Fatalf("%d concurrent jobs made %d loads and %d runs, want 1 and 1", n, loads.Load(), runs.Load())
	}
	cached := 0
	for _, o := range outs {
		if o.Err != nil || o.Value != 42 {
			t.Fatalf("outcome %+v", o)
		}
		if o.Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Fatalf("%d of %d outcomes cached, want %d", cached, n, n-1)
	}

	// Load is a cache tier: engines and jobs outside the cache skip it.
	loads.Store(0)
	hit.Run = func(context.Context) (int, error) { return 1, nil }
	New[int](Options{Workers: 1, NoCache: true}).Run(context.Background(), []Job[int]{hit})
	hit.Key = ""
	New[int](Options{Workers: 1}).Run(context.Background(), []Job[int]{hit})
	if loads.Load() != 0 {
		t.Fatalf("Load consulted %d times outside the cached path", loads.Load())
	}
}

// TestNoKeyNoCache: jobs with an empty key always execute.
func TestNoKeyNoCache(t *testing.T) {
	e := New[int](Options{Workers: 1})
	var n atomic.Int64
	j := Job[int]{ID: "anon", Run: func(context.Context) (int, error) {
		return int(n.Add(1)), nil
	}}
	a := e.Run(context.Background(), []Job[int]{j})
	b := e.Run(context.Background(), []Job[int]{j})
	if a[0].Value != 1 || b[0].Value != 2 || b[0].Cached {
		t.Fatalf("keyless job was cached: %+v %+v", a[0], b[0])
	}
}

// TestWallClockMetric: the wall-time counter accumulates execution time.
func TestWallClockMetric(t *testing.T) {
	e := New[int](Options{Workers: 1, NoCache: true})
	e.Run(context.Background(), []Job[int]{job("sleep", func(context.Context) (int, error) {
		time.Sleep(5 * time.Millisecond)
		return 0, nil
	})})
	if m := e.Metrics(); m.WallNanos < int64(5*time.Millisecond) {
		t.Fatalf("wall time %d too small", m.WallNanos)
	}
}

// TestRunFuncEmitsEveryJobOnce: the streaming hook sees every job
// exactly once with the same outcome the returned slice carries, and
// jobs cancelled before dispatch are emitted too.
func TestRunFuncEmitsEveryJobOnce(t *testing.T) {
	e := New[int](Options{Workers: 3, NoCache: true})
	jobs := make([]Job[int], 20)
	for i := range jobs {
		jobs[i] = constJob(fmt.Sprintf("J%d", i), i)
	}
	var mu sync.Mutex
	emitted := make(map[int]Outcome[int])
	out := e.RunFunc(context.Background(), jobs, func(i int, o Outcome[int]) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := emitted[i]; dup {
			t.Errorf("job %d emitted twice", i)
		}
		emitted[i] = o
	})
	if len(emitted) != len(jobs) {
		t.Fatalf("emitted %d outcomes, want %d", len(emitted), len(jobs))
	}
	for i, o := range out {
		if emitted[i].ID != o.ID || emitted[i].Value != o.Value {
			t.Fatalf("job %d: emitted %+v, returned %+v", i, emitted[i], o)
		}
	}
}

// TestRunFuncEmitsCancelledJobs: cancellation mid-batch still emits one
// outcome per job — the streaming surface must be able to tell a client
// about every requested job, dispatched or not.
func TestRunFuncEmitsCancelledJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := New[int](Options{Workers: 1, NoCache: true})
	var jobs []Job[int]
	jobs = append(jobs, job("J0", func(context.Context) (int, error) {
		cancel()
		return 1, nil
	}))
	for i := 1; i < 8; i++ {
		jobs = append(jobs, constJob(fmt.Sprintf("J%d", i), i))
	}
	var n atomic.Int64
	out := e.RunFunc(ctx, jobs, func(int, Outcome[int]) { n.Add(1) })
	if got := n.Load(); got != int64(len(jobs)) {
		t.Fatalf("emitted %d outcomes, want %d (cancelled jobs included)", got, len(jobs))
	}
	var cancelled int
	for _, o := range out[1:] {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job observed the cancellation")
	}
}
