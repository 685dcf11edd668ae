package sweep

import (
	"fmt"
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
	// Name is the lookup key ("banks", "bus", "cache", "memhier",
	// "memtech", "nuca").
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

// Adapters lists the built-in adapters sorted by name.
func Adapters() []Adapter {
	return []Adapter{banksAdapter{}, busAdapter{}, cacheAdapter{}, memhierAdapter{}, memtechAdapter{}, nucaAdapter{}}
}

// ByName resolves an adapter, listing the known names on failure.
func ByName(name string) (Adapter, error) {
	var names []string
	for _, a := range Adapters() {
		if a.Name() == name {
			return a, nil
		}
		names = append(names, a.Name())
	}
	return nil, fmt.Errorf("sweep: unknown space %q (known: %s)", name, strings.Join(names, ","))
}
