package sweep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// propRand derives a seeded PRNG for one property-test case so the suite
// is reproducible run to run.
func propRand(label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "pareto-prop|%s", label)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// randomOutcomes builds n successful outcomes with randomized metrics,
// including deliberate ties and duplicates to stress the dominance edge
// cases.
func randomOutcomes(r *rand.Rand, n int) []Outcome {
	outs := make([]Outcome, n)
	for i := range outs {
		m := Metrics{
			EnergyPJ: float64(r.Intn(20)),
			Latency:  float64(r.Intn(20)),
			Area:     float64(r.Intn(20)),
		}
		outs[i] = Outcome{Point: Point{"i": IntValue(i)}, Metrics: m}
	}
	return outs
}

// TestFrontierProperties is the satellite property test: for randomized
// metric sets the frontier must be (a) a subset of the evaluated points,
// (b) mutually non-dominated, and (c) complete — every excluded point is
// dominated by some frontier point.
func TestFrontierProperties(t *testing.T) {
	objSets := [][]string{
		{"energy_pj", "latency", "area"},
		{"energy_pj", "latency"},
		{"energy_pj"},
	}
	for trial := 0; trial < 50; trial++ {
		r := propRand(fmt.Sprintf("trial-%d", trial))
		outs := randomOutcomes(r, 1+r.Intn(80))
		objs := objSets[trial%len(objSets)]
		front := Frontier(outs, objs)

		if len(front) == 0 {
			t.Fatalf("trial %d: empty frontier from %d points", trial, len(outs))
		}

		// (a) Subset: every frontier entry is one of the inputs, at most once.
		byIdx := map[int]Metrics{}
		for _, o := range outs {
			byIdx[o.Point.Int("i")] = o.Metrics
		}
		seen := map[int]bool{}
		for _, f := range front {
			i := f.Point.Int("i")
			m, ok := byIdx[i]
			if !ok {
				t.Fatalf("trial %d: frontier point %d is not an input", trial, i)
			}
			if m != f.Metrics {
				t.Fatalf("trial %d: frontier point %d has altered metrics", trial, i)
			}
			if seen[i] {
				t.Fatalf("trial %d: frontier repeats point %d", trial, i)
			}
			seen[i] = true
		}

		// (b) Mutual non-domination.
		for i, a := range front {
			for j, b := range front {
				if i != j && Dominates(a.Metrics, b.Metrics, objs) {
					t.Fatalf("trial %d: frontier point %d dominates frontier point %d over %v",
						trial, a.Point.Int("i"), b.Point.Int("i"), objs)
				}
			}
		}

		// (c) Completeness: everything excluded is dominated by a member.
		for _, o := range outs {
			if seen[o.Point.Int("i")] {
				continue
			}
			dominated := false
			for _, f := range front {
				if Dominates(f.Metrics, o.Metrics, objs) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("trial %d: point %d excluded but undominated over %v",
					trial, o.Point.Int("i"), objs)
			}
		}
	}
}

func TestFrontierSkipsFailures(t *testing.T) {
	outs := []Outcome{
		{Point: Point{"i": IntValue(0)}, Metrics: Metrics{EnergyPJ: 100, Latency: 100, Area: 100}},
		{Point: Point{"i": IntValue(1)}, Err: fmt.Errorf("boom"), Metrics: Metrics{}}, // zero metrics would dominate everything
	}
	front := Frontier(outs, MetricNames())
	if len(front) != 1 || front[0].Point.Int("i") != 0 {
		t.Fatalf("frontier included a failed outcome: %+v", front)
	}
}

func TestDominates(t *testing.T) {
	a := Metrics{EnergyPJ: 1, Latency: 2, Area: 3}
	b := Metrics{EnergyPJ: 2, Latency: 2, Area: 3}
	objs := MetricNames()
	if !Dominates(a, b, objs) {
		t.Fatal("a should dominate b (better energy, equal otherwise)")
	}
	if Dominates(b, a, objs) {
		t.Fatal("b must not dominate a")
	}
	if Dominates(a, a, objs) {
		t.Fatal("equal metrics must not dominate (no strict improvement)")
	}
	// Trade-off: incomparable in both directions.
	c := Metrics{EnergyPJ: 0.5, Latency: 5, Area: 3}
	if Dominates(a, c, objs) || Dominates(c, a, objs) {
		t.Fatal("trade-off points must be incomparable")
	}
}

func TestFrontierTableByteIdenticalForCached(t *testing.T) {
	axes := []Axis{{Name: "i", Kind: IntAxis, Min: 0, Max: 9}}
	r := propRand("cached-identity")
	fresh := randomOutcomes(r, 10)
	cached := make([]Outcome, len(fresh))
	for i, o := range fresh {
		o.Cached = true
		cached[i] = o
	}
	objs := MetricNames()
	ft1 := FrontierTable(axes, Frontier(fresh, objs), objs)
	ft2 := FrontierTable(axes, Frontier(cached, objs), objs)
	if ft1.String() != ft2.String() {
		t.Fatalf("frontier table differs between fresh and cached runs:\n%s\nvs\n%s", ft1, ft2)
	}
}

// TestFrontierTableSortsByPrintedValue: the frontier is ordered by the
// first objective as printed, so points that tie at two decimals keep
// point order even when their raw values differ; failed outcomes and
// the status column are left out.
func TestFrontierTableSortsByPrintedValue(t *testing.T) {
	axes := []Axis{{Name: "i", Kind: IntAxis, Min: 0, Max: 9}}
	outs := []Outcome{
		{Point: Point{"i": IntValue(0)}, Metrics: Metrics{EnergyPJ: 2.004, Latency: 1, Area: 9}},
		{Point: Point{"i": IntValue(1)}, Metrics: Metrics{EnergyPJ: 2.001, Latency: 2, Area: 8}},
		{Point: Point{"i": IntValue(2)}, Metrics: Metrics{EnergyPJ: 1.5, Latency: 3, Area: 7}},
		{Point: Point{"i": IntValue(3)}, Metrics: Metrics{EnergyPJ: 0.5}, Err: errors.New("boom")},
	}
	ft := FrontierTable(axes, outs, MetricNames())
	if got, want := strings.Join(ft.Header(), ","), "i,energy_pj,latency,area"; got != want {
		t.Fatalf("header %q, want %q", got, want)
	}
	var order []string
	for _, row := range ft.ToRows() {
		order = append(order, row[0])
	}
	// 2.004 and 2.001 both print as 2.00: points 0 and 1 tie and stay in
	// point order behind point 2.
	if got, want := strings.Join(order, ","), "2,0,1"; got != want {
		t.Fatalf("frontier order %s, want %s", got, want)
	}
}

func TestSensitivityShape(t *testing.T) {
	axes := []Axis{
		{Name: "x", Kind: IntAxis, Min: 1, Max: 2},
		{Name: "y", Kind: IntAxis, Min: 1, Max: 2},
	}
	var outs []Outcome
	for x := 1; x <= 2; x++ {
		for y := 1; y <= 2; y++ {
			outs = append(outs, Outcome{
				Point: Point{"x": IntValue(x), "y": IntValue(y)},
				// Energy depends only on x; latency only on y.
				Metrics: Metrics{EnergyPJ: float64(10 * x), Latency: float64(100 * y), Area: 1},
			})
		}
	}
	tbl := Sensitivity(axes, outs)
	if tbl.NumRows() != 2*len(MetricNames()) {
		t.Fatalf("sensitivity has %d rows, want %d", tbl.NumRows(), 2*len(MetricNames()))
	}
	// x's energy spread should be 50% (avg 10 vs 20); y's energy spread 0.
	spread := map[string]string{}
	for _, row := range tbl.ToRows() {
		spread[row[0]+"/"+row[1]] = row[4]
	}
	if spread["x/energy_pj"] == spread["y/energy_pj"] {
		t.Fatalf("sensitivity cannot tell x (drives energy) from y (does not): %v", spread)
	}
	if v, err := strconv.ParseFloat(spread["y/energy_pj"], 64); err != nil || v != 0 {
		t.Fatalf("y does not move energy but spread is %q", spread["y/energy_pj"])
	}
}
