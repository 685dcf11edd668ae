package sweep

import (
	"fmt"
	"sort"
	"strconv"

	"lpmem/internal/stats"
)

// Dominates reports whether metrics a Pareto-dominates b over the given
// objectives (all minimised): a is no worse on every objective and
// strictly better on at least one.
func Dominates(a, b Metrics, objectives []string) bool {
	strict := false
	for _, obj := range objectives {
		av, _ := a.Get(obj)
		bv, _ := b.Get(obj)
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}

// Frontier extracts the exact Pareto-optimal subset of the successful
// outcomes over the given objectives, preserving input (sorted point)
// order. The comparison is exhaustive O(n²) — sweeps are thousands of
// points, not millions, and exactness is what the property tests pin:
// every returned point is one of the inputs, and no returned point
// dominates another.
func Frontier(outs []Outcome, objectives []string) []Outcome {
	ok := make([]Outcome, 0, len(outs))
	for _, o := range outs {
		if o.Err == nil {
			ok = append(ok, o)
		}
	}
	var front []Outcome
	for i, a := range ok {
		dominated := false
		for j, b := range ok {
			if i != j && Dominates(b.Metrics, a.Metrics, objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	return front
}

// ResultsTable renders outcomes as a stats.Table: one column per axis in
// declared order, the three objectives, and a status column ("ok",
// "cached" or the error). All sweep serialisation flows through this so
// sweeps ride the same JSON envelope as the experiments.
func ResultsTable(axes []Axis, outs []Outcome) *stats.Table {
	t := stats.NewTable(append(tableHeader(axes), "status")...)
	for _, o := range outs {
		status := "ok"
		switch {
		case o.Err != nil:
			status = fmt.Sprintf("error: %v", o.Err)
		case o.Cached:
			status = "cached"
		}
		t.AddRow(append(tableRow(axes, o), status)...)
	}
	return t
}

// FrontierTable renders the successful frontier outcomes like
// ResultsTable but without the status column, stably sorted by the
// first objective as printed: cells that tie at two decimals keep point
// order. The output is a pure function of the outcomes' points and
// metrics — cached and freshly evaluated runs of the same sweep produce
// byte-identical tables, which is what the resume gate in CI diffs.
func FrontierTable(axes []Axis, front []Outcome, objectives []string) *stats.Table {
	var ok []Outcome
	for _, o := range front {
		if o.Err == nil {
			ok = append(ok, o)
		}
	}
	if len(objectives) > 0 {
		printed := func(o Outcome) float64 {
			v, _ := o.Metrics.Get(objectives[0])
			f, _ := strconv.ParseFloat(fmt.Sprintf("%.2f", v), 64)
			return f
		}
		sort.SliceStable(ok, func(i, j int) bool { return printed(ok[i]) < printed(ok[j]) })
	}
	t := stats.NewTable(tableHeader(axes)...)
	for _, o := range ok {
		t.AddRow(tableRow(axes, o)...)
	}
	return t
}

// tableHeader names the axis columns in declared order, then the
// objectives.
func tableHeader(axes []Axis) []string {
	header := make([]string, 0, len(axes)+4)
	for _, a := range axes {
		header = append(header, a.Name)
	}
	return append(header, MetricNames()...)
}

// tableRow is an outcome's cells under tableHeader.
func tableRow(axes []Axis, o Outcome) []interface{} {
	row := make([]interface{}, 0, len(axes)+4)
	for _, a := range axes {
		row = append(row, o.Point[a.Name].String())
	}
	return append(row, o.Metrics.EnergyPJ, o.Metrics.Latency, o.Metrics.Area)
}

// Sensitivity summarises how much each axis moves each objective: for
// every (axis, objective) pair it averages the objective per axis value
// (marginalising the other axes) and reports the min, max and relative
// spread of those averages. A large spread marks the axis the designer
// should sweep first — the per-axis sensitivity picture the papers'
// methodology sections describe.
func Sensitivity(axes []Axis, outs []Outcome) *stats.Table {
	t := stats.NewTable("axis", "objective", "min(avg)", "max(avg)", "spread%")
	for _, a := range axes {
		// Group successful outcomes by this axis' value, in grid order.
		groups := make(map[string][]Metrics)
		var order []string
		for _, o := range outs {
			if o.Err != nil {
				continue
			}
			v := o.Point[a.Name].String()
			if _, ok := groups[v]; !ok {
				order = append(order, v)
			}
			groups[v] = append(groups[v], o.Metrics)
		}
		if len(order) < 2 {
			continue
		}
		for _, obj := range MetricNames() {
			var means []float64
			for _, v := range order {
				var vals []float64
				for _, m := range groups[v] {
					val, _ := m.Get(obj)
					vals = append(vals, val)
				}
				means = append(means, stats.Mean(vals))
			}
			lo, hi := stats.Min(means), stats.Max(means)
			spread := 0.0
			if hi > 0 {
				spread = 100 * (hi - lo) / hi
			}
			t.AddRow(a.Name, obj, lo, hi, spread)
		}
	}
	return t
}
