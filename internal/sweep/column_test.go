package sweep

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"lpmem/internal/runner"
)

var errColumn = errors.New("column failed")

// columnFake is fakeAdapter evaluated a column at a time: a column is
// the points that share j. It records the points of every RunColumn
// call, and fails the column j == failJ and panics in j == panicJ.
type columnFake struct {
	fakeAdapter
	failJ, panicJ int

	mu    sync.Mutex
	calls map[int][][]string // j -> canonical points of each call
}

func newColumnFake() *columnFake {
	return &columnFake{failJ: -1, panicJ: -1, calls: map[int][][]string{}}
}

func (*columnFake) ColumnAxis() string { return "i" }

func (a *columnFake) Run(p Point) (Metrics, error) { return runOne(a, p) }

func (a *columnFake) RunColumn(ps []Point) ([]Metrics, error) {
	j := ps[0].Int("j")
	got := make([]string, len(ps))
	for k, p := range ps {
		got[k] = p.Canonical()
	}
	a.mu.Lock()
	a.calls[j] = append(a.calls[j], got)
	a.mu.Unlock()
	switch j {
	case a.failJ:
		return nil, errColumn
	case a.panicJ:
		panic("column panicked")
	}
	out := make([]Metrics, len(ps))
	for k, p := range ps {
		out[k], _ = a.fakeAdapter.Run(p)
	}
	return out, nil
}

// columnCalls returns, per column, the sorted points of each call.
func (a *columnFake) columnCalls() map[int][][]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, calls := range a.calls {
		for _, c := range calls {
			sort.Strings(c)
		}
	}
	return a.calls
}

// wantColumns groups points into columns of j, each sorted.
func wantColumns(pts []Point) map[int][]string {
	want := map[int][]string{}
	for _, p := range pts {
		want[p.Int("j")] = append(want[p.Int("j")], p.Canonical())
	}
	for _, c := range want {
		sort.Strings(c)
	}
	return want
}

// checkColumnCalls fails unless RunColumn ran exactly once per column of
// pending, on exactly that column's pending points.
func checkColumnCalls(t *testing.T, ad *columnFake, pending []Point) {
	t.Helper()
	calls := ad.columnCalls()
	want := wantColumns(pending)
	if len(calls) != len(want) {
		t.Fatalf("RunColumn ran for %d columns, want %d", len(calls), len(want))
	}
	for j, w := range want {
		c := calls[j]
		if len(c) != 1 {
			t.Fatalf("column j=%d: RunColumn ran %d times, want once", j, len(c))
		}
		if len(c[0]) != len(w) {
			t.Fatalf("column j=%d: RunColumn got %v, want %v", j, c[0], w)
		}
		for k := range w {
			if c[0][k] != w[k] {
				t.Fatalf("column j=%d: RunColumn got %v, want %v", j, c[0], w)
			}
		}
	}
}

// checkFakeOutcomes fails unless every outcome of res succeeded with
// fakeAdapter's metrics.
func checkFakeOutcomes(t *testing.T, res *Result) {
	t.Helper()
	for _, o := range res.Outcomes {
		want, _ := fakeAdapter{}.Run(o.Point)
		if o.Err != nil || o.Metrics != want {
			t.Fatalf("%s: got %+v err %v, want %+v", o.Point.Canonical(), o.Metrics, o.Err, want)
		}
	}
}

// TestRunColumnOncePerColumn: on the full grid, with small batches that
// spread every column over several of them, each column is computed
// once and every point gets its own element.
func TestRunColumnOncePerColumn(t *testing.T) {
	ad := newColumnFake()
	pts := fakePoints(t)
	res, err := Run(context.Background(), ad, pts, Config{Workers: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(pts) || res.Failed != 0 {
		t.Fatalf("evaluated=%d failed=%d, want %d/0", res.Evaluated, res.Failed, len(pts))
	}
	checkFakeOutcomes(t, res)
	checkColumnCalls(t, ad, pts)
}

// TestRunColumnOnlyPending: with a store already holding part of one
// column and all of another, RunColumn sees only the pending points, and
// a fully stored column is not computed at all.
func TestRunColumnOnlyPending(t *testing.T) {
	ad := newColumnFake()
	pts := fakePoints(t)
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	var pending []Point
	var stored []Record
	for _, p := range pts {
		if j, i := p.Int("j"), p.Int("i"); j == 1 || (j == 0 && i < 5) {
			m, _ := fakeAdapter{}.Run(p)
			stored = append(stored, newRecord(Key(ad.Name(), StoreVersion, p.Canonical()), ad.Name(), p, m))
			continue
		}
		pending = append(pending, p)
	}
	if err := st.Put(stored...); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ad, pts, Config{Workers: 4, BatchSize: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached != len(pts)-len(pending) || res.Evaluated != len(pending) {
		t.Fatalf("cached=%d evaluated=%d, want %d/%d", res.Cached, res.Evaluated, len(pts)-len(pending), len(pending))
	}
	checkFakeOutcomes(t, res)
	checkColumnCalls(t, ad, pending)
}

// TestRunColumnFailureIsContained: a RunColumn error fails its column's
// points with that error, a panic fails its column's points as a
// recovered panic, and every other column succeeds.
func TestRunColumnFailureIsContained(t *testing.T) {
	ad := newColumnFake()
	ad.failJ, ad.panicJ = 2, 3
	pts := fakePoints(t)
	res, err := Run(context.Background(), ad, pts, Config{Workers: 4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, o := range res.Outcomes {
		var pe *runner.PanicError
		switch o.Point.Int("j") {
		case ad.failJ:
			if !errors.Is(o.Err, errColumn) {
				t.Fatalf("%s: err %v, want the column's error", o.Point.Canonical(), o.Err)
			}
			failed++
		case ad.panicJ:
			if !errors.As(o.Err, &pe) {
				t.Fatalf("%s: err %v, want a recovered panic", o.Point.Canonical(), o.Err)
			}
			failed++
		default:
			want, _ := fakeAdapter{}.Run(o.Point)
			if o.Err != nil || o.Metrics != want {
				t.Fatalf("%s: got %+v err %v, want %+v", o.Point.Canonical(), o.Metrics, o.Err, want)
			}
		}
	}
	if res.Failed != failed || failed != 20 {
		t.Fatalf("failed=%d (counted %d), want the 20 points of two columns", res.Failed, failed)
	}
	checkColumnCalls(t, ad, pts)
}

// TestRunColumnSample: a Latin-hypercube sample forms small columns
// through the same path.
func TestRunColumnSample(t *testing.T) {
	ad := newColumnFake()
	pts, err := ad.Space().Sample(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ad, pts, Config{Workers: 4, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(pts) || res.Failed != 0 {
		t.Fatalf("evaluated=%d failed=%d, want %d/0", res.Evaluated, res.Failed, len(pts))
	}
	checkFakeOutcomes(t, res)
	checkColumnCalls(t, ad, pts)
}

// overlapFake is a ColumnAdapter whose columns are contiguous in
// canonical order, as memhier's are: the column axis, row, is the last
// axis. RunColumn waits until a second RunColumn has started or the
// deadline passes, and records whether two ever ran at once.
type overlapFake struct {
	deadline <-chan struct{}

	mu         sync.Mutex
	running    int
	overlapped bool
	both       chan struct{} // closed once two RunColumns run at once
}

func (*overlapFake) Name() string       { return "overlap" }
func (*overlapFake) Describe() string   { return "test substrate" }
func (*overlapFake) ColumnAxis() string { return "row" }
func (*overlapFake) Space() Space {
	return Space{Axes: []Axis{
		{Name: "col", Kind: IntAxis, Min: 0, Max: 3},
		{Name: "row", Kind: IntAxis, Min: 0, Max: 3},
	}}
}

func (a *overlapFake) Run(p Point) (Metrics, error) { return runOne(a, p) }

func (a *overlapFake) RunColumn(ps []Point) ([]Metrics, error) {
	a.mu.Lock()
	a.running++
	if a.running > 1 && !a.overlapped {
		a.overlapped = true
		close(a.both)
	}
	a.mu.Unlock()
	select {
	case <-a.both:
	case <-a.deadline:
	}
	a.mu.Lock()
	a.running--
	a.mu.Unlock()
	out := make([]Metrics, len(ps))
	for k, p := range ps {
		out[k] = Metrics{EnergyPJ: float64(4*p.Int("col") + p.Int("row")), Latency: 1, Area: 1}
	}
	return out, nil
}

// TestRunStartsColumnsTogether: with two workers over contiguous 4-point
// columns in 8-point batches, each batch starts both its columns before
// either column's second point, so two RunColumns overlap. Dispatched in
// point order, the second worker would wait on the first column instead.
func TestRunStartsColumnsTogether(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ad := &overlapFake{deadline: ctx.Done(), both: make(chan struct{})}
	pts, err := ad.Space().Grid()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ad, pts, Config{Workers: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(pts) {
		t.Fatalf("evaluated %d of %d points", res.Evaluated, len(pts))
	}
	for _, o := range res.Outcomes {
		if want := float64(4*o.Point.Int("col") + o.Point.Int("row")); o.Metrics.EnergyPJ != want {
			t.Fatalf("%s: energy %v, want %v", o.Point.Canonical(), o.Metrics.EnergyPJ, want)
		}
	}
	ad.mu.Lock()
	defer ad.mu.Unlock()
	if !ad.overlapped {
		t.Fatal("no two columns ran at once: the second worker waited on the first column")
	}
}

// TestColumnAdaptersMatchPerPoint: on the full banks and memhier grids,
// the column path through Run gives every point the metrics a per-point
// Run gives it, bit for bit.
func TestColumnAdaptersMatchPerPoint(t *testing.T) {
	for _, name := range []string{"banks", "memhier"} {
		ad, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ad.(ColumnAdapter); !ok {
			t.Fatalf("%s is not a ColumnAdapter", name)
		}
		pts, err := ad.Space().Grid()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), ad, pts, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range res.Outcomes {
			want, err := ad.Run(o.Point)
			if o.Err != nil || err != nil {
				t.Fatalf("%s %s: column err %v, per-point err %v", name, o.Point.Canonical(), o.Err, err)
			}
			if math.Float64bits(o.Metrics.EnergyPJ) != math.Float64bits(want.EnergyPJ) ||
				math.Float64bits(o.Metrics.Latency) != math.Float64bits(want.Latency) ||
				math.Float64bits(o.Metrics.Area) != math.Float64bits(want.Area) {
				t.Fatalf("%s %s: column %+v, per-point %+v", name, o.Point.Canonical(), o.Metrics, want)
			}
		}
	}
}

// TestColumnAdaptersRejectMixedColumns: points that differ off the
// banks axis are not one column.
func TestColumnAdaptersRejectMixedColumns(t *testing.T) {
	mixed := []Point{
		{"banks": IntValue(2), "block": IntValue(16)},
		{"banks": IntValue(4), "block": IntValue(32)},
	}
	if _, err := (banksAdapter{}).RunColumn(mixed); err == nil {
		t.Fatal("banks RunColumn accepted points from two columns")
	}
}
