//lint:untrusted-input

// Package sweep is the design-space exploration engine: every abstract in
// the DATE'03 low-power track is the output of a parameter sweep — the
// authors varied bank counts, cache geometries and bus encodings and
// reported the best point — and this package turns the repository's fixed
// experiment registry into that exploration tool.
//
// The pieces mirror the methodology of the papers:
//
//   - Space/Axis describe the design space: named integer axes, every
//     integer of a range or geometric steps across it, and enum axes,
//     plus Constraint filters that remove illegal points (e.g. caches
//     larger than the die budget).
//   - Adapter exposes a sweepable substrate (bank partitioning, cache
//     geometry, bus encoding, a two-level hierarchy) as Run(point) →
//     Metrics, where Metrics carries the energy/latency/area triple every
//     DATE'03 trade-off is plotted in.
//   - Executor shards the point set into batches on the bounded runner
//     pool and records every result in an append-only JSON-lines Store
//     keyed by a content hash of the point, so a re-run — or a sweep
//     killed halfway — resumes incrementally instead of recomputing.
//   - Frontier/Sensitivity extract the exact Pareto-optimal subset and a
//     per-axis spread summary, rendered through stats.Table so sweeps
//     serialise through the same JSON envelope as the experiments.
//
// Everything is deterministic: sampling is seed-derived, points are
// enumerated and reported in sorted order, and no wall-clock value enters
// a result — the lpmemlint determinism analyzer and the golden-file
// harness apply to sweeps exactly as they do to the registry.
package sweep

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// AxisKind discriminates the two axis value domains.
type AxisKind int

// Axis kinds: integer ranges and enumerated categories.
const (
	IntAxis AxisKind = iota
	EnumAxis
)

// String names the kind for tables and JSON.
func (k AxisKind) String() string {
	switch k {
	case IntAxis:
		return "int"
	case EnumAxis:
		return "enum"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Axis is one named dimension of a design space.
type Axis struct {
	// Name identifies the axis in points, tables and constraints.
	Name string
	// Kind selects the value domain.
	Kind AxisKind
	// Min and Max bound an IntAxis (inclusive).
	Min, Max int
	// Steps is the grid resolution of an IntAxis. 0 means every integer
	// in [Min, Max]. Steps > 0 places that many samples geometrically
	// from Min to Max (bank sizes, set counts and line sizes are
	// power-of-two shaped), rounded to integers and deduplicated; it
	// requires Min > 0.
	Steps int
	// Values enumerates an EnumAxis, in canonical (reported) order.
	Values []string
}

// validate checks the axis definition.
func (a Axis) validate() error {
	if a.Name == "" {
		return fmt.Errorf("sweep: axis with empty name")
	}
	switch a.Kind {
	case EnumAxis:
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: enum axis %q has no values", a.Name)
		}
		seen := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if seen[v] {
				return fmt.Errorf("sweep: enum axis %q repeats value %q", a.Name, v)
			}
			seen[v] = true
		}
	case IntAxis:
		if a.Max < a.Min {
			return fmt.Errorf("sweep: axis %q has max %d < min %d", a.Name, a.Max, a.Min)
		}
		if a.Steps > 0 && a.Min <= 0 {
			return fmt.Errorf("sweep: stepped axis %q needs min > 0, got %d", a.Name, a.Min)
		}
	default:
		return fmt.Errorf("sweep: axis %q has unknown kind %d", a.Name, int(a.Kind))
	}
	return nil
}

// gridValues enumerates the axis' grid samples in ascending (enum:
// declared) order.
func (a Axis) gridValues() []Value {
	if a.Kind == EnumAxis {
		out := make([]Value, len(a.Values))
		for i, v := range a.Values {
			out[i] = EnumValue(v)
		}
		return out
	}
	if a.Steps <= 0 {
		//lint:allow boundedbuf axis geometry is compiled-in adapter config, not request input
		out := make([]Value, 0, a.Max-a.Min+1)
		for v := a.Min; v <= a.Max; v++ {
			out = append(out, IntValue(v))
		}
		return out
	}
	var out []Value
	lo, hi := math.Log(float64(a.Min)), math.Log(float64(a.Max))
	for i := 0; i < a.Steps; i++ {
		u := 0.0
		if a.Steps > 1 {
			u = float64(i) / float64(a.Steps-1)
		}
		v := int(math.Round(math.Exp(lo + u*(hi-lo))))
		if len(out) == 0 || v != out[len(out)-1].num {
			out = append(out, IntValue(v))
		}
	}
	return out
}

// value snaps u in [0,1) to an axis value (Latin-hypercube sampling).
// Enum and stepped axes pick a grid value by index, so substrate
// validity (e.g. power-of-two set counts) holds under sampling; a
// contiguous axis rounds its linear position instead.
func (a Axis) value(u float64) Value {
	if a.Kind == IntAxis && a.Steps <= 0 {
		v := int(math.Round(float64(a.Min) + u*float64(a.Max-a.Min)))
		return IntValue(min(max(v, a.Min), a.Max))
	}
	vals := a.gridValues()
	return vals[min(int(u*float64(len(vals))), len(vals)-1)]
}

// Value is one coordinate of a point: an integer or an enum label.
type Value struct {
	num  int
	str  string
	enum bool
}

// IntValue makes an integer coordinate.
func IntValue(v int) Value { return Value{num: v} }

// EnumValue makes a categorical coordinate.
func EnumValue(v string) Value { return Value{str: v, enum: true} }

// String returns the canonical text form: the enum label or the decimal
// integer. This form is what point hashes, store records and tables are
// built from, so it must stay stable.
func (v Value) String() string {
	if v.enum {
		return v.str
	}
	return strconv.Itoa(v.num)
}

// Point is one design-space coordinate assignment, keyed by axis name.
type Point map[string]Value

// Int returns the named coordinate as an integer (0 when absent; the
// executor validates points against the adapter's space before running,
// so adapters may use the plain accessors).
func (p Point) Int(name string) int { return p[name].num }

// Enum returns the named categorical coordinate ("" when absent).
func (p Point) Enum(name string) string {
	v := p[name]
	if !v.enum {
		return ""
	}
	return v.str
}

// Canonical renders the point as "axis=value|..." with axes sorted by
// name — the stable identity that point hashes are computed over.
func (p Point) Canonical() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	slices.Sort(names)
	return p.canonicalIn(names)
}

// canonicalIn renders the canonical form given p's axis names, sorted.
func (p Point) canonicalIn(names []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(p[n].String())
	}
	return b.String()
}

// columnKey identifies the column of axis that p lies in: its canonical
// form without that axis, which the other points of the column share.
func (p Point) columnKey(axis string) string {
	q := maps.Clone(p)
	delete(q, axis)
	return q.Canonical()
}

// Key content-addresses a point, given its canonical form (see
// Point.Canonical), for the result store: the adapter name and version
// pin the code that produced the metrics (same spirit as the engine's
// CacheKey), and the FNV-64a of "adapter@version|canonical" identifies
// the coordinates. The key is "adapter@version:" and that hash in 16
// hex digits.
func Key(adapter, version, canonical string) string {
	var buf [128]byte
	b := append(buf[:0], adapter...)
	b = append(b, '@')
	b = append(b, version...)
	prefix := len(b)
	b = append(b, '|')
	b = append(b, canonical...)
	h := fnv.New64a()
	_, _ = h.Write(b) // a hash.Hash's Write never returns an error
	sum := h.Sum64()
	b = append(b[:prefix], ':')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	return string(b)
}

// Constraint removes illegal points from a space. Allow reports whether
// the point is legal; Name documents the rule in listings.
type Constraint struct {
	Name  string
	Allow func(Point) bool
}

// Space is a named set of axes plus the constraints that carve out the
// legal region.
type Space struct {
	Axes        []Axis
	Constraints []Constraint
}

// Validate checks every axis and constraint definition.
func (s Space) Validate() error {
	if len(s.Axes) == 0 {
		return fmt.Errorf("sweep: space has no axes")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if err := a.validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, c := range s.Constraints {
		if c.Allow == nil {
			return fmt.Errorf("sweep: constraint %q has no Allow func", c.Name)
		}
	}
	return nil
}

// validator checks many points against one space: it derives each
// stepped axis' grid and sorts the axis names once, where a per-point
// check would redo both for every point.
type validator struct {
	space Space
	// grids holds each stepped axis' grid values, nil for other axes.
	grids [][]Value
	// names is the axis names, sorted: a valid point's canonical order.
	names []string
}

// validator prepares s for validating points; s must be valid.
func (s Space) validator() validator {
	v := validator{space: s, grids: make([][]Value, len(s.Axes)), names: make([]string, len(s.Axes))}
	for i, a := range s.Axes {
		if a.Kind == IntAxis && a.Steps > 0 {
			v.grids[i] = a.gridValues()
		}
		v.names[i] = a.Name
	}
	slices.Sort(v.names)
	return v
}

// canonical checks that p assigns exactly the space's axes with
// in-domain values (a stepped axis' value must be one of its grid
// values) and satisfies every constraint, and returns p's canonical
// form.
func (v validator) canonical(p Point) (string, error) {
	s := v.space
	if len(p) != len(s.Axes) {
		return "", fmt.Errorf("sweep: point %q assigns %d axes, space has %d", p.Canonical(), len(p), len(s.Axes))
	}
	for i, a := range s.Axes {
		x, ok := p[a.Name]
		if !ok {
			return "", fmt.Errorf("sweep: point %q misses axis %q", p.Canonical(), a.Name)
		}
		switch {
		case a.Kind == EnumAxis:
			if !slices.Contains(a.Values, x.String()) {
				return "", fmt.Errorf("sweep: %q is not a value of enum axis %q", x.String(), a.Name)
			}
		case x.enum:
			return "", fmt.Errorf("sweep: axis %q: enum value %q on numeric axis", a.Name, x.str)
		case x.num < a.Min || x.num > a.Max:
			return "", fmt.Errorf("sweep: axis %q: value %d outside [%d,%d]", a.Name, x.num, a.Min, a.Max)
		case v.grids[i] != nil && !slices.Contains(v.grids[i], x):
			return "", fmt.Errorf("sweep: axis %q: value %d is off the stepped grid", a.Name, x.num)
		}
	}
	if !s.allowed(p) {
		return "", fmt.Errorf("sweep: point %q violates a space constraint", p.Canonical())
	}
	return p.canonicalIn(v.names), nil
}

// allowed applies every constraint.
func (s Space) allowed(p Point) bool {
	for _, c := range s.Constraints {
		if !c.Allow(p) {
			return false
		}
	}
	return true
}

// GridSize returns the raw cartesian grid cardinality, before
// constraints.
func (s Space) GridSize() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.gridValues())
	}
	return n
}

// Grid enumerates the full cartesian grid in sorted point order (axes in
// declared order, values ascending), with constrained points removed.
func (s Space) Grid() ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	values := make([][]Value, len(s.Axes))
	for i, a := range s.Axes {
		values[i] = a.gridValues()
	}
	var out []Point
	idx := make([]int, len(s.Axes))
	for {
		p := make(Point, len(s.Axes))
		for i, a := range s.Axes {
			p[a.Name] = values[i][idx[i]]
		}
		if s.allowed(p) {
			out = append(out, p)
		}
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(values[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// Sample draws up to n points by Latin-hypercube sampling: each axis is
// cut into n strata, a seeded permutation pairs strata across axes, and
// one point is placed per stratum tuple. Every decision derives from
// (seed, axis name, stratum), never from map order or scheduling, so a
// fixed seed reproduces the point set exactly. Constrained and duplicate
// points (integer/enum snapping collapses strata) are dropped, so fewer
// than n points may return.
func (s Space) Sample(n int, seed int64) ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sweep: sample size %d must be positive", n)
	}
	perms := make([][]int, len(s.Axes))
	jitter := make([]*rand.Rand, len(s.Axes))
	for i, a := range s.Axes {
		perms[i] = axisRand(seed, a.Name, "perm").Perm(n)
		jitter[i] = axisRand(seed, a.Name, "jitter")
	}
	// Clamp the capacity hint: n is caller-supplied (ultimately a request
	// field behind /sweep), and a hint must not become the allocation.
	seen := make(map[string]bool, min(n, 4096))
	var out []Point
	for k := 0; k < n; k++ {
		p := make(Point, len(s.Axes))
		for i, a := range s.Axes {
			u := (float64(perms[i][k]) + jitter[i].Float64()) / float64(n)
			p[a.Name] = a.value(u)
		}
		c := p.Canonical()
		if seen[c] || !s.allowed(p) {
			continue
		}
		seen[c] = true
		out = append(out, p)
	}
	SortPoints(s.Axes, out)
	return out, nil
}

// axisRand derives a PRNG from (seed, axis, role) so sampling decisions
// are independent of evaluation order — the same construction the fault
// injector uses for placement.
func axisRand(seed int64, axis, role string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, axis, role)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// SortPoints orders points by axis value in declared axis order: integer
// axes numerically, enum axes by declaration index. The executor and
// every report iterate points in this order, which is what makes sweep
// output byte-reproducible.
func SortPoints(axes []Axis, pts []Point) {
	slices.SortStableFunc(pts, pointOrder(axes))
}

// pointOrder is the comparison SortPoints sorts by.
func pointOrder(axes []Axis) func(p, q Point) int {
	rank := make(map[string]map[string]int, len(axes))
	for _, a := range axes {
		if a.Kind == EnumAxis {
			m := make(map[string]int, len(a.Values))
			for i, v := range a.Values {
				m[v] = i
			}
			rank[a.Name] = m
		}
	}
	return func(p, q Point) int {
		for _, a := range axes {
			vp, vq := p[a.Name], q[a.Name]
			if a.Kind == EnumAxis {
				if c := cmp.Compare(rank[a.Name][vp.str], rank[a.Name][vq.str]); c != 0 {
					return c
				}
				continue
			}
			if c := cmp.Compare(vp.num, vq.num); c != 0 {
				return c
			}
		}
		return 0
	}
}
