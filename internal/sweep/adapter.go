package sweep

import (
	"fmt"
	"sort"
	"strings"
)

// StoreVersion pins store records and sweep identities to the adapter
// code that produced them, the same way RegistryVersion pins the engine
// cache. Bump it whenever an adapter's metrics change meaning or value,
// so a stale on-disk store can never be resumed into wrong results.
const StoreVersion = "sweep-1"

// Metrics is the objective triple every DATE'03 trade-off is reported
// in: energy per run, a latency proxy, and an area proxy. All three are
// minimised; Pareto extraction works over any subset.
type Metrics struct {
	// EnergyPJ is the total energy of the configuration on the
	// reference workload, in the model's normalised picojoules.
	EnergyPJ float64 `json:"energy_pj"`
	// Latency is a cycle-count proxy for the configuration's speed
	// (access cycles plus miss/decode penalties; bus cycles for codes).
	Latency float64 `json:"latency"`
	// Area is a silicon-cost proxy (SRAM bytes, bus line count).
	Area float64 `json:"area"`
}

// MetricNames lists the objective keys in canonical order.
func MetricNames() []string { return []string{"energy_pj", "latency", "area"} }

// Get returns the named objective value.
func (m Metrics) Get(name string) (float64, bool) {
	switch name {
	case "energy_pj":
		return m.EnergyPJ, true
	case "latency":
		return m.Latency, true
	case "area":
		return m.Area, true
	default:
		return 0, false
	}
}

// ParseObjectives validates a comma list of objective names ("" means
// all three) and returns them in canonical order, deduplicated.
func ParseObjectives(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return MetricNames(), nil
	}
	want := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, ok := (Metrics{}).Get(part); !ok {
			return nil, fmt.Errorf("sweep: unknown objective %q (known: %s)", part, strings.Join(MetricNames(), ","))
		}
		want[part] = true
	}
	var out []string
	for _, name := range MetricNames() {
		if want[name] {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty objective list %q", s)
	}
	return out, nil
}

// Adapter exposes one sweepable substrate. Run must be a pure function
// of the point — deterministic, no shared mutable state — because the
// executor calls it from concurrent pool workers and the store assumes a
// point's metrics never change under a fixed StoreVersion.
type Adapter interface {
	// Name is the registry key ("banks", "cache", "bus", "memhier", "memtech").
	Name() string
	// Describe is a one-line summary for listings.
	Describe() string
	// Space returns the adapter's design space.
	Space() Space
	// Run evaluates one point. The executor validates the point against
	// Space before calling.
	Run(p Point) (Metrics, error)
}

// ColumnAdapter is an Adapter that evaluates a whole column at once. A
// column is the points of a space that differ only on ColumnAxis; its
// points share work that RunColumn does once, such as a trace replay or
// a DP whose one run answers every value of the axis. The executor
// calls RunColumn once per column of the points it has to evaluate.
type ColumnAdapter interface {
	Adapter
	// ColumnAxis names the axis that varies within a column.
	ColumnAxis() string
	// RunColumn evaluates the points of one column, at least one.
	// Element i of the result must equal what Run(ps[i]) returns, bit
	// for bit.
	RunColumn(ps []Point) ([]Metrics, error)
}

// runOne is Run for a ColumnAdapter: a column of one point, so that
// each column adapter has one implementation.
func runOne(a ColumnAdapter, p Point) (Metrics, error) {
	ms, err := a.RunColumn([]Point{p})
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// registry holds the built-in adapters, keyed by name.
var registry = map[string]Adapter{}

// register adds an adapter at package init.
func register(a Adapter) {
	if _, dup := registry[a.Name()]; dup {
		//lint:allow panicfree duplicate registration is a compile-time wiring bug, caught by any test that imports the package
		panic("sweep: duplicate adapter " + a.Name())
	}
	registry[a.Name()] = a
}

// Adapters lists the registered adapters sorted by name.
func Adapters() []Adapter {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Adapter, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// ByName resolves an adapter, listing the known names on failure.
func ByName(name string) (Adapter, error) {
	if a, ok := registry[name]; ok {
		return a, nil
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("sweep: unknown space %q (known: %s)", name, strings.Join(names, ","))
}
