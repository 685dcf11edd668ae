package sweep

import (
	"strings"
	"testing"
)

// testSpace is a small mixed space used across the unit tests.
func testSpace() Space {
	return Space{
		Axes: []Axis{
			{Name: "banks", Kind: IntAxis, Min: 1, Max: 4},
			{Name: "size", Kind: IntAxis, Min: 16, Max: 128, Steps: 4},
			{Name: "mode", Kind: EnumAxis, Values: []string{"wb", "wt"}},
		},
		Constraints: []Constraint{{
			Name:  "wt needs <= 2 banks",
			Allow: func(p Point) bool { return p.Enum("mode") != "wt" || p.Int("banks") <= 2 },
		}},
	}
}

func TestGridEnumeration(t *testing.T) {
	sp := testSpace()
	pts, err := sp.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// 4 banks x 4 sizes x 2 modes = 32, minus wt points with banks 3,4
	// (2 banks x 4 sizes) = 8 removed.
	if want := 24; len(pts) != want {
		t.Fatalf("grid has %d points, want %d", len(pts), want)
	}
	if sp.GridSize() != 32 {
		t.Fatalf("GridSize %d, want 32", sp.GridSize())
	}
	seen := map[string]bool{}
	check := sp.validator()
	for _, p := range pts {
		c, err := check.canonical(p)
		if err != nil {
			t.Fatalf("grid emitted out-of-space point: %v", err)
		}
		if c != p.Canonical() {
			t.Fatalf("validated canonical form %q, Canonical %q", c, p.Canonical())
		}
		if seen[c] {
			t.Fatalf("duplicate grid point %s", c)
		}
		seen[c] = true
	}
	// Log axis must land on the powers of two.
	sizes := map[int]bool{}
	for _, p := range pts {
		sizes[p.Int("size")] = true
	}
	for _, want := range []int{16, 32, 64, 128} {
		if !sizes[want] {
			t.Fatalf("log axis misses %d (got %v)", want, sizes)
		}
	}
}

func TestGridSortedAndDeterministic(t *testing.T) {
	sp := testSpace()
	a, err := sp.Grid()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("grid sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Canonical() != b[i].Canonical() {
			t.Fatalf("grid order differs at %d: %s vs %s", i, a[i].Canonical(), b[i].Canonical())
		}
	}
	// Declared-axis-order sort: banks ascending first.
	last := -1
	for _, p := range a {
		if v := p.Int("banks"); v < last {
			t.Fatalf("grid not sorted by first axis: %d after %d", v, last)
		} else {
			last = v
		}
	}
}

func TestSampleDeterministicSeedSensitive(t *testing.T) {
	sp := testSpace()
	a, err := sp.Sample(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Sample(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty sample")
	}
	if len(a) != len(b) {
		t.Fatalf("same-seed samples differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Canonical() != b[i].Canonical() {
			t.Fatalf("same-seed sample differs at %d", i)
		}
	}
	check := sp.validator()
	for _, p := range a {
		if _, err := check.canonical(p); err != nil {
			t.Fatalf("sample emitted out-of-space point: %v", err)
		}
	}
	c, err := sp.Sample(16, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Canonical() != c[i].Canonical() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSampleSnapsSteppedIntAxes(t *testing.T) {
	sp := Space{Axes: []Axis{{Name: "sets", Kind: IntAxis, Min: 16, Max: 512, Steps: 6}}}
	pts, err := sp.Sample(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	legal := map[int]bool{16: true, 32: true, 64: true, 128: true, 256: true, 512: true}
	for _, p := range pts {
		if !legal[p.Int("sets")] {
			t.Fatalf("sample %d is off the stepped grid", p.Int("sets"))
		}
	}
}

func TestContainsRejects(t *testing.T) {
	sp := testSpace()
	cases := []Point{
		{"banks": IntValue(5), "size": IntValue(16), "mode": EnumValue("wb")},    // out of range
		{"banks": IntValue(3), "size": IntValue(16), "mode": EnumValue("wt")},    // constraint
		{"banks": IntValue(1), "size": IntValue(16)},                             // missing axis
		{"banks": IntValue(1), "size": IntValue(16), "mode": EnumValue("xx")},    // bad enum
		{"banks": EnumValue("x"), "size": IntValue(16), "mode": EnumValue("wb")}, // enum on numeric axis
		{"banks": IntValue(1), "size": IntValue(100), "mode": EnumValue("wb")},   // off the stepped grid
	}
	check := sp.validator()
	for i, p := range cases {
		if _, err := check.canonical(p); err == nil {
			t.Errorf("case %d: validation accepted illegal point %s", i, p.Canonical())
		}
	}
	// An enum coordinate is checked by its text form, whatever built it.
	enums := Space{Axes: []Axis{{Name: "tech", Kind: EnumAxis, Values: []string{"180", "90"}}}}
	if _, err := enums.validator().canonical(Point{"tech": IntValue(90)}); err != nil {
		t.Errorf("validation rejected an integer spelling an enum label: %v", err)
	}
}

func TestKeyStableAndCanonical(t *testing.T) {
	p := Point{"banks": IntValue(4), "block": IntValue(64)}
	q := Point{"block": IntValue(64), "banks": IntValue(4)}
	if p.Canonical() != q.Canonical() {
		t.Fatalf("canonical form depends on construction order: %q vs %q", p.Canonical(), q.Canonical())
	}
	c := p.Canonical()
	if Key("banks", StoreVersion, c) == Key("cache", StoreVersion, c) {
		t.Fatal("key ignores adapter")
	}
	if Key("banks", "v1", c) == Key("banks", "v2", c) {
		t.Fatal("key ignores version")
	}
	if Key("banks", StoreVersion, c) == Key("banks", StoreVersion, Point{"banks": IntValue(4), "block": IntValue(32)}.Canonical()) {
		t.Fatal("key ignores coordinates")
	}
	if !strings.HasPrefix(Key("banks", StoreVersion, c), "banks@"+StoreVersion+":") {
		t.Fatalf("key %q misses the adapter@version prefix", Key("banks", StoreVersion, c))
	}
}

func TestSpaceValidateRejects(t *testing.T) {
	bad := []Space{
		{},
		{Axes: []Axis{{Name: "", Kind: IntAxis, Min: 0, Max: 1}}},
		{Axes: []Axis{{Name: "a", Kind: IntAxis, Min: 2, Max: 1}}},
		{Axes: []Axis{{Name: "a", Kind: IntAxis, Min: 0, Max: 4, Steps: 3}}}, // stepped from 0
		{Axes: []Axis{{Name: "a", Kind: EnumAxis}}},
		{Axes: []Axis{{Name: "a", Kind: EnumAxis, Values: []string{"x", "x"}}}},
		{Axes: []Axis{{Name: "a", Kind: IntAxis, Min: 0, Max: 1}, {Name: "a", Kind: IntAxis, Min: 0, Max: 1}}},
		{Axes: []Axis{{Name: "a", Kind: IntAxis, Min: 0, Max: 1}}, Constraints: []Constraint{{Name: "nil"}}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a malformed space", i)
		}
	}
}

func TestAdapterSpacesValid(t *testing.T) {
	for _, ad := range Adapters() {
		if err := ad.Space().Validate(); err != nil {
			t.Errorf("adapter %s: invalid space: %v", ad.Name(), err)
		}
		if ad.Space().GridSize() <= 1 {
			t.Errorf("adapter %s: degenerate space", ad.Name())
		}
	}
	// The acceptance-criteria space: >= 200 points on 2 axes.
	banks, err := ByName("banks")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := banks.Space().Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 200 || len(banks.Space().Axes) != 2 {
		t.Fatalf("banks space: %d points on %d axes, want >= 200 on 2", len(pts), len(banks.Space().Axes))
	}
}
