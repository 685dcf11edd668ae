package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lpmem/internal/testutil"
)

// TestRetryHealsTransient: a job that fails its first two attempts
// succeeds within the retry budget, and the metrics count the retries.
func TestRetryHealsTransient(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{Workers: 1, NoCache: true, Retries: 3})
	var attempts atomic.Int64
	out := e.Run(context.Background(), []Job[int]{job("flaky", func(context.Context) (int, error) {
		if attempts.Add(1) <= 2 {
			return 0, errors.New("transient")
		}
		return 7, nil
	})})
	if out[0].Err != nil || out[0].Value != 7 {
		t.Fatalf("outcome: %+v", out[0])
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	m := e.Metrics()
	if m.Retries != 2 || m.Executed != 3 || m.Successes != 1 || m.Failures != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRetryBudgetExhausted: a permanently failing job surfaces its last
// error after Retries+1 attempts.
func TestRetryBudgetExhausted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{Workers: 1, NoCache: true, Retries: 2})
	var attempts atomic.Int64
	out := e.Run(context.Background(), []Job[int]{job("doomed", func(context.Context) (int, error) {
		return 0, fmt.Errorf("failure %d", attempts.Add(1))
	})})
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "failure 3") {
		t.Fatalf("want last attempt's error, got %v", out[0].Err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if m := e.Metrics(); m.Retries != 2 || m.Failures != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRetryStopsOnBatchCancel: once the batch context dies, no further
// attempts are made.
func TestRetryStopsOnBatchCancel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	e := New[int](Options{Workers: 1, NoCache: true, Retries: 10})
	var attempts atomic.Int64
	out := e.Run(ctx, []Job[int]{job("J", func(context.Context) (int, error) {
		attempts.Add(1)
		cancel()
		return 0, errors.New("fail")
	})})
	if out[0].Err == nil {
		t.Fatal("want failure")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry after cancel)", got)
	}
}

// TestRetryPerAttemptTimeout: each retry gets a fresh Timeout window, so
// a job that is slow once but fast afterwards recovers.
func TestRetryPerAttemptTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{
		Workers: 1, NoCache: true, Timeout: 30 * time.Millisecond, Retries: 1,
	})
	var attempts atomic.Int64
	out := e.Run(context.Background(), []Job[int]{job("slow-once", func(ctx context.Context) (int, error) {
		if attempts.Add(1) == 1 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 9, nil
	})})
	if out[0].Err != nil || out[0].Value != 9 {
		t.Fatalf("outcome: %+v", out[0])
	}
}

// TestBreakerLifecycle: consecutive failures open the breaker, open
// breakers fast-fail without executing, the cooldown admits a half-open
// probe, and a successful probe closes the circuit.
func TestBreakerLifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{
		Workers: 1, NoCache: true,
		BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond,
	})
	var healthy atomic.Bool
	var execs atomic.Int64
	mk := func() []Job[int] {
		return []Job[int]{job("E1", func(context.Context) (int, error) {
			execs.Add(1)
			if healthy.Load() {
				return 1, nil
			}
			return 0, errors.New("down")
		})}
	}
	// Two consecutive failures open the breaker.
	for i := 0; i < 2; i++ {
		if out := e.Run(context.Background(), mk()); out[0].Err == nil {
			t.Fatal("want failure")
		}
	}
	if st := e.BreakerStates()["E1"]; st != BreakerOpen {
		t.Fatalf("state after failures = %q", st)
	}
	if m := e.Metrics(); m.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d", m.BreakerOpens)
	}
	// While open, jobs fast-fail without executing.
	before := execs.Load()
	out := e.Run(context.Background(), mk())
	if !errors.Is(out[0].Err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", out[0].Err)
	}
	if execs.Load() != before {
		t.Fatal("open breaker still executed the job")
	}
	if m := e.Metrics(); m.BreakerFastFails != 1 {
		t.Fatalf("fast fails = %d", m.BreakerFastFails)
	}
	// After the cooldown the half-open probe runs; success closes it.
	healthy.Store(true)
	time.Sleep(40 * time.Millisecond)
	out = e.Run(context.Background(), mk())
	if out[0].Err != nil || out[0].Value != 1 {
		t.Fatalf("probe outcome: %+v", out[0])
	}
	if st, ok := e.BreakerStates()["E1"]; ok {
		t.Fatalf("breaker still %q after successful probe", st)
	}
	// Break it again: the closed breaker reopens at the threshold.
	healthy.Store(false)
	for i := 0; i < 2; i++ {
		e.Run(context.Background(), mk())
	}
	if st := e.BreakerStates()["E1"]; st != BreakerOpen {
		t.Fatalf("state = %q, want reopen", st)
	}
}

// TestBreakerRetriesCountAsOneOutcome: the breaker sees the post-retry
// outcome, not each attempt, so a job that heals within its retry budget
// never trips it.
func TestBreakerRetriesCountAsOneOutcome(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{
		Workers: 1, NoCache: true, Retries: 2,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	var attempts atomic.Int64
	for round := 0; round < 3; round++ {
		attempts.Store(0)
		out := e.Run(context.Background(), []Job[int]{job("E1", func(context.Context) (int, error) {
			if attempts.Add(1) <= 2 {
				return 0, errors.New("transient")
			}
			return 1, nil
		})})
		if out[0].Err != nil {
			t.Fatalf("round %d: %v", round, out[0].Err)
		}
	}
	if len(e.BreakerStates()) != 0 {
		t.Fatal("healed retries tripped the breaker")
	}
}

// TestPanicStackReachesError: the panic stack is part of the flattened
// error string, so JSON envelopes and logs carry it.
func TestPanicStackReachesError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{Workers: 1, NoCache: true})
	out := e.Run(context.Background(), []Job[int]{job("boom", func(context.Context) (int, error) {
		panic("kaboom-stack-test")
	})})
	msg := out[0].Err.Error()
	if !strings.Contains(msg, "kaboom-stack-test") {
		t.Fatalf("panic value missing from error: %s", msg)
	}
	if !strings.Contains(msg, "goroutine") || !strings.Contains(msg, "robustness_test.go") {
		t.Fatalf("stack trace missing from error: %s", msg)
	}
}

// TestEngineShutdownLeaksNothing: a mixed batch (successes, failures,
// panics, a timeout) leaves no goroutines behind once outcomes settle.
func TestEngineShutdownLeaksNothing(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	e := New[int](Options{Workers: 4, NoCache: true, Timeout: 20 * time.Millisecond, Retries: 1})
	jobs := []Job[int]{
		constJob("ok", 1),
		job("err", func(context.Context) (int, error) { return 0, errors.New("nope") }),
		job("panic", func(context.Context) (int, error) { panic("boom") }),
		job("stuck", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}),
	}
	out := e.Run(context.Background(), jobs)
	if out[0].Err != nil {
		t.Fatalf("ok job failed: %v", out[0].Err)
	}
	for _, i := range []int{1, 2, 3} {
		if out[i].Err == nil {
			t.Fatalf("job %d should fail", i)
		}
	}
}
