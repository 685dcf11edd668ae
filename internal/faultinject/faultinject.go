// Package faultinject is a deterministic, seed-driven fault injector for
// the experiment-runner stack. It decorates job functions with
// configurable faults — delays, transient errors, panics, corrupted
// result cells, slow starts and mid-job cancellations — so the engine,
// the HTTP service and the chaos CLI can be exercised against the
// failure modes a production deployment would see, while staying fully
// replayable: every decision is derived from (plan seed, job key), never
// from execution order, so two runs with the same plan place identical
// faults no matter how the scheduler interleaves jobs.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"lpmem/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// None leaves the job untouched.
	None Kind = iota
	// Delay sleeps a seeded duration (up to Plan.MaxDelay) before every
	// attempt of the job.
	Delay
	// Transient fails the first Plan.FaultAttempts attempts with
	// ErrInjected, then lets the job run; retry logic should recover.
	Transient
	// Panic panics on the first Plan.FaultAttempts attempts; the runner's
	// containment must convert it into a structured error.
	Panic
	// Corrupt runs the job, then mutates its successful result through
	// the corruptor passed to Wrap (e.g. overwriting a table cell), so
	// downstream consumers see well-formed but wrong data.
	Corrupt
	// SlowStart sleeps like Delay but halves the delay on every retry,
	// modelling a cold resource that warms up.
	SlowStart
	// Cancel reports context.Canceled partway into the first
	// Plan.FaultAttempts attempts, modelling a caller abandoning the job.
	Cancel

	numKinds
)

// String returns the plan-file name of the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Delay:
		return "delay"
	case Transient:
		return "error"
	case Panic:
		return "panic"
	case Corrupt:
		return "corrupt"
	case SlowStart:
		return "slowstart"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// AllKinds returns every injectable kind (excluding None).
func AllKinds() []Kind {
	return []Kind{Delay, Transient, Panic, Corrupt, SlowStart, Cancel}
}

// ParseKinds parses a plan string: "all" (or "") enables every kind, and
// a comma list like "delay,panic,error" enables a subset.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllKinds(), nil
	}
	var kinds []Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var found bool
		for _, k := range AllKinds() {
			if k.String() == part {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faultinject: unknown fault kind %q (known: %s)", part, KindNames())
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault plan %q", s)
	}
	return kinds, nil
}

// KindNames returns the comma list of parseable kind names.
func KindNames() string {
	names := make([]string, 0, len(AllKinds()))
	for _, k := range AllKinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ",")
}

// ErrInjected is the sentinel wrapped by every injected transient error,
// so harnesses can tell injected failures from genuine ones.
var ErrInjected = errors.New("faultinject: injected transient error")

// Plan configures an Injector. The zero value injects nothing.
type Plan struct {
	// Seed drives every decision; identical seeds yield identical fault
	// placement for identical key sets.
	Seed int64
	// Rate is the fraction of keys that receive a fault, in [0,1].
	Rate float64
	// Kinds are the enabled fault classes; empty means AllKinds.
	Kinds []Kind
	// MaxDelay caps Delay/SlowStart sleeps and scales Cancel's partial
	// execution; 0 defaults to 20ms.
	MaxDelay time.Duration
	// FaultAttempts is how many attempts of a faulted key observe the
	// fault before it clears (transient faults heal); 0 defaults to 1.
	FaultAttempts int
}

// Decision is the deterministic fault assignment for one key.
type Decision struct {
	// Kind is the fault class (None for unfaulted keys).
	Kind Kind
	// Delay is the seeded sleep for Delay/SlowStart and the partial-run
	// time for Cancel.
	Delay time.Duration
}

// Injector makes deterministic decisions and tracks per-key attempts and
// per-kind injection counts. It is safe for concurrent use.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	attempts map[string]int
	counts   [numKinds]uint64
}

// New returns an injector for the plan, normalising defaults.
func New(plan Plan) *Injector {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 20 * time.Millisecond
	}
	if plan.FaultAttempts <= 0 {
		plan.FaultAttempts = 1
	}
	if len(plan.Kinds) == 0 {
		plan.Kinds = AllKinds()
	}
	return &Injector{plan: plan, attempts: make(map[string]int)}
}

// rng derives a PRNG from the plan seed and a label, so decisions depend
// only on (seed, label) and never on scheduling order.
func (in *Injector) rng(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", in.plan.Seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Decide returns the fault assignment for key. It is a pure function of
// (plan, key): calling it any number of times, in any order, from any
// goroutine yields the same decision.
func (in *Injector) Decide(key string) Decision {
	r := in.rng(key)
	if r.Float64() >= in.plan.Rate {
		return Decision{Kind: None}
	}
	kind := in.plan.Kinds[r.Intn(len(in.plan.Kinds))]
	// Keep delays strictly positive so a Delay decision always sleeps.
	delay := time.Duration(1 + r.Int63n(int64(in.plan.MaxDelay)))
	return Decision{Kind: kind, Delay: delay}
}

// begin records one attempt of key and returns its 1-based number.
func (in *Injector) begin(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts[key]++
	return in.attempts[key]
}

// note counts one injected fault of the given kind.
func (in *Injector) note(k Kind) {
	in.mu.Lock()
	in.counts[k]++
	in.mu.Unlock()
}

// Attempts reports how many attempts of key have begun.
func (in *Injector) Attempts(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.attempts[key]
}

// Reset clears attempt history so a fresh sweep heals transient faults
// again; placements are unaffected (they depend only on the plan).
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts = make(map[string]int)
}

// Counts returns the injected-fault executions by kind name, for the
// chaos report and metrics endpoints.
func (in *Injector) Counts() map[string]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64)
	for k := Kind(0); k < numKinds; k++ {
		if in.counts[k] > 0 {
			out[k.String()] = in.counts[k]
		}
	}
	return out
}

// sleep waits for d or until ctx is done, reporting which happened.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Wrap decorates run with the injector's fault for key. corrupt, when
// non-nil, is applied to successful values of Corrupt-faulted attempts
// with a key-derived PRNG. The returned function is safe for concurrent
// use and for repeated attempts (retries observe healing transients).
func Wrap[T any](in *Injector, key string, run func(ctx context.Context) (T, error), corrupt func(T, *rand.Rand) T) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		var zero T
		d := in.Decide(key)
		attempt := in.begin(key)
		switch d.Kind {
		case Delay:
			in.note(Delay)
			if err := sleep(ctx, d.Delay); err != nil {
				return zero, err
			}
		case SlowStart:
			// Halve the penalty on every retry: a warming resource.
			in.note(SlowStart)
			if err := sleep(ctx, d.Delay>>uint(attempt-1)); err != nil {
				return zero, err
			}
		case Transient:
			if attempt <= in.plan.FaultAttempts {
				in.note(Transient)
				return zero, fmt.Errorf("%w (key %s, attempt %d)", ErrInjected, key, attempt)
			}
		case Panic:
			if attempt <= in.plan.FaultAttempts {
				in.note(Panic)
				//lint:allow panicfree deliberate injected panic: the runner's containment is the system under test
				panic(fmt.Sprintf("faultinject: injected panic (key %s, attempt %d)", key, attempt))
			}
		case Cancel:
			if attempt <= in.plan.FaultAttempts {
				in.note(Cancel)
				// Burn part of the budget first so the cancellation lands
				// "mid-job" from the caller's perspective.
				if err := sleep(ctx, d.Delay/4); err != nil {
					return zero, err
				}
				return zero, context.Canceled
			}
		}
		v, err := run(ctx)
		if err == nil && d.Kind == Corrupt && corrupt != nil && attempt <= in.plan.FaultAttempts {
			in.note(Corrupt)
			v = corrupt(v, in.rng(key+"|corrupt"))
		}
		return v, err
	}
}

// CorruptTableCell overwrites one deterministic cell of a finished table
// with garbage, reporting whether a cell was available to corrupt. The
// garbage is printable but semantically absurd, modelling a bit-flipped
// numeric field that still serialises cleanly.
func CorruptTableCell(t *stats.Table, r *rand.Rand) bool {
	if t == nil || t.NumRows() == 0 || t.NumCols() == 0 {
		return false
	}
	row := r.Intn(t.NumRows())
	col := r.Intn(t.NumCols())
	garbage := fmt.Sprintf("CORRUPT<%x>", r.Uint32())
	if err := t.SetCell(row, col, garbage); err != nil {
		return false
	}
	return true
}

// GoroutineDelta runs fn and returns how many goroutines outlived it
// after a settle loop of up to wait. The chaos harness uses it to assert
// the engine leaks nothing across a faulted sweep; the settle loop exists
// because abandoned (timed-out) jobs legitimately finish shortly after
// their batch returns.
func GoroutineDelta(wait time.Duration, fn func()) int {
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(wait)
	now := runtime.NumGoroutine()
	for now > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		now = runtime.NumGoroutine()
	}
	return now - before
}
