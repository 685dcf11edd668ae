// Package runner is the concurrent experiment-execution engine behind the
// lpmem CLI, the lpmemd HTTP service and the benchmark harness. It runs a
// batch of jobs on a bounded worker pool, enforces per-job deadlines,
// converts panicking jobs into structured errors instead of killing the
// batch, deduplicates and caches successful results by content key, and
// keeps an expvar-style counter snapshot for observability.
//
// The engine is generic over the result type so it stays independent of
// the experiment registry (the root lpmem package instantiates it with
// *lpmem.Result and wires registry entries into Jobs).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work. Key identifies the job's result content for
// caching and in-flight deduplication: two jobs with the same non-empty
// Key are assumed to produce the same value (the lpmem adapter couples
// the experiment ID with the registry version). An empty Key opts the job
// out of caching entirely.
//
// Load, when set, is the tier behind the engine's memory cache. The
// engine consults it only on the cached path, after the job has taken
// its key's in-flight slot and the memory cache missed, so identical
// concurrent jobs call it once. A hit settles the job as cached, fills
// the memory cache and skips Run.
type Job[T any] struct {
	ID   string
	Key  string
	Run  func(ctx context.Context) (T, error)
	Load func() (T, bool)
}

// Outcome is the result of one job: either a value or an error, plus how
// long the job ran and whether it was served from the cache.
type Outcome[T any] struct {
	ID       string
	Value    T
	Err      error
	Duration time.Duration
	Cached   bool
}

// PanicError is the structured error a recovered job panic becomes. The
// captured stack is part of the message so it survives every path that
// flattens the error to a string (JSON envelopes, logs, CLI output) —
// without it, a panicking experiment behind lpmemd is undebuggable.
type PanicError struct {
	ID    string
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v\nstack:\n%s", e.ID, e.Value, e.Stack)
}

// ErrCircuitOpen is wrapped by fast-fail outcomes of jobs whose circuit
// breaker is open: the job was not executed because its recent attempts
// failed consecutively and the cooldown has not elapsed.
var ErrCircuitOpen = errors.New("runner: circuit breaker open")

// Options configure an Engine.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the per-job deadline; 0 means no deadline beyond the
	// batch context. A job that overruns its deadline is abandoned (its
	// goroutine finishes in the background and the late result is
	// discarded) so one stuck experiment cannot wedge the batch.
	Timeout time.Duration
	// NoCache disables the result cache, in-flight deduplication and
	// Job.Load; benchmarks and determinism tests use it to force
	// re-execution.
	NoCache bool

	// Retries is the number of re-attempts after a failed execution. A
	// failed attempt is re-run at once: jobs are deterministic, and the
	// only failures that heal do so by attempt count, so waiting between
	// attempts would buy nothing. Each attempt gets its own Timeout
	// window. A job is not retried once the batch context is cancelled.
	// 0 disables retries.
	Retries int

	// BreakerThreshold opens a per-job-ID circuit breaker after this many
	// consecutive execution failures; while open, runs of that ID fail
	// fast with ErrCircuitOpen instead of executing. 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a breaker stays open before a single
	// half-open probe is allowed through. <= 0 defaults to 5s.
	BreakerCooldown time.Duration
}

// BreakerState names the per-ID circuit state in snapshots.
type BreakerState string

// Breaker states: Closed admits work, Open fails fast, HalfOpen admits a
// single probe after the cooldown.
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// breaker tracks consecutive failures for one job ID.
type breaker struct {
	state    BreakerState
	fails    int
	openedAt time.Time
}

// Metrics is a point-in-time snapshot of the engine's counters, shaped
// for direct JSON exposure on lpmemd's /metrics endpoint.
type Metrics struct {
	Submitted   uint64 `json:"submitted"`
	Executed    uint64 `json:"executed"`
	Successes   uint64 `json:"successes"`
	Failures    uint64 `json:"failures"`
	Panics      uint64 `json:"panics"`
	Cancelled   uint64 `json:"cancelled"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Retries counts re-attempts after failed executions.
	Retries uint64 `json:"retries"`
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens uint64 `json:"breaker_opens"`
	// BreakerFastFails counts jobs rejected by an open breaker without
	// executing.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	// WallNanos sums per-job execution wall time, so under a parallel
	// batch it exceeds elapsed time by roughly the achieved speedup.
	WallNanos int64 `json:"wall_nanos"`
}

type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Engine runs batches of jobs. It is safe for concurrent use; overlapping
// Run calls share the worker budget only in the sense that each call
// spawns at most Options.Workers workers of its own, and they share the
// cache and in-flight table so identical jobs never execute twice.
type Engine[T any] struct {
	opts Options

	submitted, executed, successes, failures atomic.Uint64
	panics, cancelled, hits, misses          atomic.Uint64
	retries, breakerOpens, breakerFastFails  atomic.Uint64
	wall                                     atomic.Int64

	mu       sync.Mutex
	cache    map[string]T
	inflight map[string]*flight[T]

	bmu      sync.Mutex
	breakers map[string]*breaker
}

// New creates an engine with the given options.
func New[T any](opts Options) *Engine[T] {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.BreakerThreshold > 0 && opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	return &Engine[T]{
		opts:     opts,
		cache:    make(map[string]T),
		inflight: make(map[string]*flight[T]),
		breakers: make(map[string]*breaker),
	}
}

// Workers reports the resolved pool size.
func (e *Engine[T]) Workers() int { return e.opts.Workers }

// CacheLen reports how many results are currently cached.
func (e *Engine[T]) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Cached reports whether a result for key is already in the cache.
func (e *Engine[T]) Cached(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.cache[key]
	return ok
}

// Metrics returns a snapshot of the counters.
func (e *Engine[T]) Metrics() Metrics {
	return Metrics{
		Submitted:        e.submitted.Load(),
		Executed:         e.executed.Load(),
		Successes:        e.successes.Load(),
		Failures:         e.failures.Load(),
		Panics:           e.panics.Load(),
		Cancelled:        e.cancelled.Load(),
		CacheHits:        e.hits.Load(),
		CacheMisses:      e.misses.Load(),
		Retries:          e.retries.Load(),
		BreakerOpens:     e.breakerOpens.Load(),
		BreakerFastFails: e.breakerFastFails.Load(),
		WallNanos:        e.wall.Load(),
	}
}

// BreakerStates snapshots every non-closed breaker, keyed by job ID. An
// empty map means the engine is healthy; lpmemd's /healthz degrades on
// any open entry.
func (e *Engine[T]) BreakerStates() map[string]BreakerState {
	out := make(map[string]BreakerState)
	e.bmu.Lock()
	defer e.bmu.Unlock()
	for id, b := range e.breakers {
		if b.state != BreakerClosed {
			out[id] = b.state
		}
	}
	return out
}

// breakerAllow reports whether a job with this ID may execute now. An
// open breaker past its cooldown transitions to half-open and admits
// exactly one probe; other callers keep failing fast until the probe
// resolves the state.
func (e *Engine[T]) breakerAllow(id string) bool {
	if e.opts.BreakerThreshold <= 0 {
		return true
	}
	e.bmu.Lock()
	defer e.bmu.Unlock()
	b, ok := e.breakers[id]
	if !ok {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if time.Since(b.openedAt) >= e.opts.BreakerCooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	case BreakerHalfOpen:
		// A probe is already in flight.
		return false
	default:
		return true
	}
}

// breakerResult records an execution outcome for the ID's breaker.
func (e *Engine[T]) breakerResult(id string, ok bool) {
	if e.opts.BreakerThreshold <= 0 {
		return
	}
	e.bmu.Lock()
	defer e.bmu.Unlock()
	b := e.breakers[id]
	if b == nil {
		b = &breaker{state: BreakerClosed}
		e.breakers[id] = b
	}
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= e.opts.BreakerThreshold {
		if b.state != BreakerOpen {
			e.breakerOpens.Add(1)
		}
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.fails = 0
	}
}

// Run executes the batch on the pool and returns one outcome per job, in
// input order. Cancelling ctx stops dispatch: running jobs are given the
// cancelled context, and jobs not yet started are reported with the
// context's error instead of executing.
func (e *Engine[T]) Run(ctx context.Context, jobs []Job[T]) []Outcome[T] {
	return e.RunFunc(ctx, jobs, nil)
}

// RunFunc is Run with a completion hook: emit (when non-nil) is invoked
// with (input index, outcome) as each job settles, in completion order —
// the seam the HTTP streaming surface uses to push per-job events while
// the batch is still running. emit is called concurrently from worker
// goroutines, so it must be safe for concurrent use; jobs cancelled
// before dispatch are emitted too (from the calling goroutine, after the
// pool drains), so every job is emitted exactly once.
func (e *Engine[T]) RunFunc(ctx context.Context, jobs []Job[T], emit func(i int, o Outcome[T])) []Outcome[T] {
	out := make([]Outcome[T], len(jobs))
	workers := e.opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow goroutine the pool is bounded by workers and drains when idx closes
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = e.runOne(ctx, jobs[i])
				if emit != nil {
					emit(i, out[i])
				}
			}
		}()
	}

	next := len(jobs)
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			next = i
		}
		if next != len(jobs) {
			break
		}
	}
	close(idx)
	wg.Wait()

	// Jobs never handed to a worker surface the cancellation explicitly.
	for i := next; i < len(jobs); i++ {
		e.submitted.Add(1)
		e.cancelled.Add(1)
		out[i] = Outcome[T]{ID: jobs[i].ID, Err: ctx.Err()}
		if emit != nil {
			emit(i, out[i])
		}
	}
	return out
}

// runOne executes (or serves from cache) a single job.
func (e *Engine[T]) runOne(ctx context.Context, j Job[T]) Outcome[T] {
	e.submitted.Add(1)
	if err := ctx.Err(); err != nil {
		e.cancelled.Add(1)
		return Outcome[T]{ID: j.ID, Err: err}
	}

	useCache := !e.opts.NoCache && j.Key != ""
	var fl *flight[T]
	if useCache {
		e.mu.Lock()
		if v, ok := e.cache[j.Key]; ok {
			e.mu.Unlock()
			e.hits.Add(1)
			e.successes.Add(1)
			return Outcome[T]{ID: j.ID, Value: v, Cached: true}
		}
		if other, ok := e.inflight[j.Key]; ok {
			e.mu.Unlock()
			return e.join(ctx, j, other)
		}
		fl = &flight[T]{done: make(chan struct{})}
		e.inflight[j.Key] = fl
		e.mu.Unlock()
		if j.Load != nil {
			if v, ok := j.Load(); ok {
				e.hits.Add(1)
				e.successes.Add(1)
				e.settle(j.Key, fl, v, nil)
				return Outcome[T]{ID: j.ID, Value: v, Cached: true}
			}
		}
		e.misses.Add(1)
	}

	start := time.Now()
	var v T
	var err error
	if !e.breakerAllow(j.ID) {
		e.breakerFastFails.Add(1)
		err = fmt.Errorf("%w: job %s is cooling down", ErrCircuitOpen, j.ID)
	} else {
		// Each attempt gets a fresh deadline window; retries stop as soon
		// as the batch context dies.
		for attempt := 0; ; attempt++ {
			jctx, cancel := ctx, context.CancelFunc(func() {})
			if e.opts.Timeout > 0 {
				jctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
			}
			v, err = e.invoke(jctx, j)
			cancel()
			e.executed.Add(1)
			if err == nil || attempt >= e.opts.Retries || ctx.Err() != nil {
				break
			}
			e.retries.Add(1)
		}
		e.breakerResult(j.ID, err == nil)
	}
	d := time.Since(start)
	e.wall.Add(int64(d))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.cancelled.Add(1)
		}
		e.failures.Add(1)
	} else {
		e.successes.Add(1)
	}

	if fl != nil {
		e.settle(j.Key, fl, v, err)
	}
	return Outcome[T]{ID: j.ID, Value: v, Err: err, Duration: d}
}

// settle publishes a flight's result to its joiners and releases the
// key's in-flight slot; a success also enters the cache.
func (e *Engine[T]) settle(key string, fl *flight[T], v T, err error) {
	fl.val, fl.err = v, err
	e.mu.Lock()
	if err == nil {
		e.cache[key] = v
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	close(fl.done)
}

// join waits for an identical in-flight job instead of re-executing it.
func (e *Engine[T]) join(ctx context.Context, j Job[T], fl *flight[T]) Outcome[T] {
	select {
	case <-fl.done:
	case <-ctx.Done():
		e.cancelled.Add(1)
		return Outcome[T]{ID: j.ID, Err: ctx.Err()}
	}
	if fl.err != nil {
		e.failures.Add(1)
		return Outcome[T]{ID: j.ID, Err: fl.err}
	}
	e.hits.Add(1)
	e.successes.Add(1)
	return Outcome[T]{ID: j.ID, Value: fl.val, Cached: true}
}

// invoke runs the job body with panic containment and deadline
// enforcement. The job runs in its own goroutine so a deadline overrun
// abandons it rather than blocking a pool worker forever.
func (e *Engine[T]) invoke(ctx context.Context, j Job[T]) (T, error) {
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.panics.Add(1)
				var zero T
				//lint:allow goroutine ch is buffered (cap 1) and has exactly one sender; the send cannot block
				ch <- res{zero, &PanicError{ID: j.ID, Value: r, Stack: debug.Stack()}}
			}
		}()
		v, err := j.Run(ctx)
		//lint:allow goroutine ch is buffered (cap 1) and has exactly one sender; the send cannot block
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}
