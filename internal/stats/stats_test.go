package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty = 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %f", got)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 || Median(xs) != 3 {
		t.Fatalf("min/max/median = %f/%f/%f", Min(xs), Max(xs), Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median wrong")
	}
	for _, f := range []func([]float64) float64{Min, Max, Median} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty slice must panic")
				}
			}()
			f(nil)
		}()
	}
}

func TestPercentSaving(t *testing.T) {
	if PercentSaving(0, 5) != 0 {
		t.Fatal("zero base = 0")
	}
	if got := PercentSaving(200, 150); got != 25 {
		t.Fatalf("saving = %f", got)
	}
	if got := PercentSaving(100, 120); got != -20 {
		t.Fatalf("negative saving = %f", got)
	}
}

// TestMinLeMeanLeMax is the classic ordering property.
func TestMinLeMeanLeMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			// Skip pathological magnitudes whose sum overflows float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		m := Mean(xs)
		return Min(xs) <= m+1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 42)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Fatalf("float formatting wrong: %q", lines[2])
	}
	if !strings.Contains(lines[3], "42") {
		t.Fatalf("int row wrong: %q", lines[3])
	}
	// Columns align: all lines same length.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) > len(lines[0])+2 {
			t.Fatalf("misaligned row %d", i)
		}
	}
}

// TestTableToRows: ToRows/Header return formatted copies that do not
// alias the table's internal state.
func TestTableToRows(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 42)
	h := tb.Header()
	rows := tb.ToRows()
	if len(h) != 2 || h[0] != "name" || h[1] != "value" {
		t.Fatalf("header = %v", h)
	}
	if len(rows) != 2 || rows[0][1] != "3.14" || rows[1][1] != "42" {
		t.Fatalf("rows = %v", rows)
	}
	h[0] = "mutated"
	rows[0][0] = "mutated"
	if tb.Header()[0] != "name" || tb.ToRows()[0][0] != "alpha" {
		t.Fatal("ToRows/Header must return copies")
	}
}

// TestTableMarshalJSON: the JSON form round-trips header and rows, and
// an empty table encodes as empty arrays rather than null.
func TestTableMarshalJSON(t *testing.T) {
	tb := NewTable("app", "saving%")
	tb.AddRow("fir", 25.5)
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &dec); err != nil {
		t.Fatal(err)
	}
	if len(dec.Header) != 2 || dec.Header[1] != "saving%" {
		t.Fatalf("header = %v", dec.Header)
	}
	if len(dec.Rows) != 1 || dec.Rows[0][1] != "25.50" {
		t.Fatalf("rows = %v", dec.Rows)
	}
	empty, err := json.Marshal(NewTable())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(empty), "null") {
		t.Fatalf("empty table must not encode null: %s", empty)
	}
}
