package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lpmem/internal/stats"
)

// TestDecideDeterminism: decisions are a pure function of (seed, key) —
// two injectors with the same plan agree on every key, in any order.
func TestDecideDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rate: 0.7}
	a, b := New(plan), New(plan)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("E%d", i)
	}
	pa := make(map[string]string, len(keys))
	for _, k := range keys {
		pa[k] = a.Decide(k).Kind.String()
	}
	// Query b in reverse order to prove order independence.
	for i := len(keys) - 1; i >= 0; i-- {
		if got := b.Decide(keys[i]).Kind.String(); got != pa[keys[i]] {
			t.Fatalf("key %s: %s vs %s", keys[i], got, pa[keys[i]])
		}
	}
	// A different seed must (overwhelmingly) produce a different placement.
	c := New(Plan{Seed: 43, Rate: 0.7})
	same := 0
	for _, k := range keys {
		if c.Decide(k).Kind.String() == pa[k] {
			same++
		}
	}
	if same == len(keys) {
		t.Fatal("seed change did not move any fault")
	}
}

// TestRateBounds: Rate 0 faults nothing; Rate 1 faults everything.
func TestRateBounds(t *testing.T) {
	zero := New(Plan{Seed: 1, Rate: 0})
	all := New(Plan{Seed: 1, Rate: 1})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("J%d", i)
		if d := zero.Decide(k); d.Kind != None {
			t.Fatalf("rate 0 faulted %s with %s", k, d.Kind)
		}
		if d := all.Decide(k); d.Kind == None {
			t.Fatalf("rate 1 left %s unfaulted", k)
		}
	}
}

// TestParseKinds: "all", subsets, and rejection of unknown names.
func TestParseKinds(t *testing.T) {
	if ks, err := ParseKinds("all"); err != nil || len(ks) != len(AllKinds()) {
		t.Fatalf("all: %v %v", ks, err)
	}
	ks, err := ParseKinds("delay, panic")
	if err != nil || len(ks) != 2 || ks[0] != Delay || ks[1] != Panic {
		t.Fatalf("subset: %v %v", ks, err)
	}
	if _, err := ParseKinds("meteor"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseKinds(","); err == nil {
		t.Fatal("empty plan accepted")
	}
}

// wrapOnly builds an injector whose every key gets exactly the one kind.
func wrapOnly(kind Kind, attempts int) *Injector {
	return New(Plan{Seed: 7, Rate: 1, Kinds: []Kind{kind}, FaultAttempts: attempts, MaxDelay: 5 * time.Millisecond})
}

// TestWrapTransientHeals: a transient fault fails exactly FaultAttempts
// times, then the job succeeds.
func TestWrapTransientHeals(t *testing.T) {
	in := wrapOnly(Transient, 2)
	run := Wrap(in, "E1", func(context.Context) (int, error) { return 99, nil }, nil)
	for i := 1; i <= 2; i++ {
		if _, err := run(context.Background()); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: want injected error, got %v", i, err)
		}
	}
	v, err := run(context.Background())
	if err != nil || v != 99 {
		t.Fatalf("healed attempt: %d, %v", v, err)
	}
	if got := in.Counts()["error"]; got != 2 {
		t.Fatalf("counted %d transient injections", got)
	}
}

// TestWrapPanicThenHeal: the panic fires on attempt one and clears after.
func TestWrapPanicThenHeal(t *testing.T) {
	in := wrapOnly(Panic, 1)
	run := Wrap(in, "E2", func(context.Context) (int, error) { return 1, nil }, nil)
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "injected panic") {
				t.Fatalf("recover = %v", r)
			}
		}()
		_, _ = run(context.Background())
	}()
	if v, err := run(context.Background()); err != nil || v != 1 {
		t.Fatalf("post-panic attempt: %d, %v", v, err)
	}
}

// TestWrapCancel: the cancel fault surfaces context.Canceled mid-job and
// heals on retry.
func TestWrapCancel(t *testing.T) {
	in := wrapOnly(Cancel, 1)
	run := Wrap(in, "E3", func(context.Context) (int, error) { return 5, nil }, nil)
	if _, err := run(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled, got %v", err)
	}
	if v, err := run(context.Background()); err != nil || v != 5 {
		t.Fatalf("healed: %d, %v", v, err)
	}
}

// TestWrapDelayRespectsContext: an already-cancelled context aborts the
// delay instead of sleeping.
func TestWrapDelayRespectsContext(t *testing.T) {
	in := New(Plan{Seed: 7, Rate: 1, Kinds: []Kind{Delay}, MaxDelay: time.Hour})
	run := Wrap(in, "E4", func(context.Context) (int, error) { return 1, nil }, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored cancellation")
	}
}

// TestWrapCorrupt: successful values pass through the corruptor exactly
// once, deterministically.
func TestWrapCorrupt(t *testing.T) {
	mk := func(context.Context) (int, error) { return 10, nil }
	corrupt := func(v int, r *rand.Rand) int { return v + 1 + r.Intn(100) }
	a := Wrap(wrapOnly(Corrupt, 1), "E5", mk, corrupt)
	b := Wrap(wrapOnly(Corrupt, 1), "E5", mk, corrupt)
	va, _ := a(context.Background())
	vb, _ := b(context.Background())
	if va == 10 {
		t.Fatal("value not corrupted")
	}
	if va != vb {
		t.Fatalf("corruption not deterministic: %d vs %d", va, vb)
	}
}

// TestReset: Reset heals attempt history so transients fire again.
func TestReset(t *testing.T) {
	in := wrapOnly(Transient, 1)
	run := Wrap(in, "E6", func(context.Context) (int, error) { return 1, nil }, nil)
	if _, err := run(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("first attempt: %v", err)
	}
	if _, err := run(context.Background()); err != nil {
		t.Fatalf("second attempt should heal: %v", err)
	}
	in.Reset()
	if _, err := run(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-reset attempt should fault again: %v", err)
	}
}

// TestCorruptTableCell: the corruptor lands in-bounds, changes content
// deterministically, and tolerates degenerate tables.
func TestCorruptTableCell(t *testing.T) {
	tbl := stats.NewTable("a", "b")
	tbl.AddRow(1, 2)
	tbl.AddRow(3, 4)
	before := fmt.Sprint(tbl.ToRows())
	if !CorruptTableCell(tbl, rand.New(rand.NewSource(9))) {
		t.Fatal("corruption reported no cell")
	}
	after := fmt.Sprint(tbl.ToRows())
	if before == after {
		t.Fatal("table unchanged")
	}
	if !strings.Contains(after, "CORRUPT<") {
		t.Fatalf("garbage marker missing: %s", after)
	}
	if CorruptTableCell(stats.NewTable("x"), rand.New(rand.NewSource(9))) {
		t.Fatal("empty table reported a corrupted cell")
	}
	if CorruptTableCell(nil, rand.New(rand.NewSource(9))) {
		t.Fatal("nil table reported a corrupted cell")
	}
}
