// Package stats provides the small statistical helpers shared by the
// experiment harnesses: means, extremes, medians, percent savings and a
// fixed-width table printer for reproducing the papers' result tables.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		//lint:allow panicfree returning a fabricated 0 would silently corrupt paper tables; empty input is a harness bug
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		//lint:allow panicfree returning a fabricated 0 would silently corrupt paper tables; empty input is a harness bug
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs; it panics on an empty slice.
//
//lint:allow testonly the benchmark module (benchmark/) reduces every repeated measurement with it, and the loader does not walk nested modules
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		//lint:allow panicfree returning a fabricated 0 would silently corrupt paper tables; empty input is a harness bug
		panic("stats: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// PercentSaving returns the percentage saved going from base to opt:
// 100 * (base - opt) / base. It returns 0 when base is 0.
func PercentSaving(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - opt) / base
}

// Table accumulates rows and renders a fixed-width text table, used by the
// benchmark harnesses to print paper-style result tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Header returns a copy of the column headers.
func (t *Table) Header() []string {
	return append([]string{}, t.header...)
}

// ToRows returns a copy of the formatted body rows, one slice of cells
// per row, for programmatic consumers (JSON APIs, diffing, assertions).
func (t *Table) ToRows() [][]string {
	rows := make([][]string, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]string{}, r...)
	}
	return rows
}

// NumRows returns the number of body rows.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the number of header columns.
func (t *Table) NumCols() int { return len(t.header) }

// SetCell overwrites one body cell in place. It exists for fault-injection
// harnesses that corrupt finished tables to exercise downstream
// robustness; out-of-range coordinates are reported as an error rather
// than panicking because harnesses drive them from random plans.
func (t *Table) SetCell(row, col int, v string) error {
	if row < 0 || row >= len(t.rows) {
		return fmt.Errorf("stats: row %d out of range [0,%d)", row, len(t.rows))
	}
	if col < 0 || col >= len(t.rows[row]) {
		return fmt.Errorf("stats: col %d out of range [0,%d)", col, len(t.rows[row]))
	}
	t.rows[row][col] = v
	return nil
}

// MarshalJSON encodes the table as {"header": [...], "rows": [[...]]}.
// Empty tables encode as empty arrays, never null.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Header(), t.ToRows()})
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
