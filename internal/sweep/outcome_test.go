package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runGrid evaluates the points through Run with no store, so a
// ColumnAdapter takes its column path.
func runGrid(tb testing.TB, ad Adapter, pts []Point, workers int) *Result {
	tb.Helper()
	res, err := Run(context.Background(), ad, pts, Config{Workers: workers})
	if err != nil {
		tb.Fatalf("%s: %v", ad.Name(), err)
	}
	return res
}

// adapterGrid returns the adapter's full grid.
func adapterGrid(tb testing.TB, ad Adapter) []Point {
	tb.Helper()
	pts, err := ad.Space().Grid()
	if err != nil {
		tb.Fatalf("%s: %v", ad.Name(), err)
	}
	return pts
}

// outcomeDigests renders the outcome golden: a "store-version" line, then
// one "space sha256" line per adapter over every grid point's canonical
// form and the bits of its three metrics, in grid order.
func outcomeDigests(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "store-version %s\n", StoreVersion)
	for _, ad := range Adapters() {
		h := sha256.New()
		for _, o := range runGrid(t, ad, adapterGrid(t, ad), 2).Outcomes {
			if o.Err != nil {
				t.Fatalf("%s %s: %v", ad.Name(), o.Point.Canonical(), o.Err)
			}
			m := o.Metrics
			fmt.Fprintf(h, "%s %016x %016x %016x\n", o.Point.Canonical(),
				math.Float64bits(m.EnergyPJ), math.Float64bits(m.Latency), math.Float64bits(m.Area))
		}
		fmt.Fprintf(&b, "%s %x\n", ad.Name(), h.Sum(nil))
	}
	return b.Bytes()
}

// TestOutcomeGolden pins the metrics of every point of every adapter's
// grid to the digests in testdata/outcomes.sha256: a model change that
// moves any sweep outcome, which a store record keyed under the same
// StoreVersion would then contradict, fails here and names the space.
// `go test ./internal/sweep -run OutcomeGolden -update` rewrites the
// file only when StoreVersion differs from the version it records, so
// moved outcomes cannot be re-pinned without a version bump.
func TestOutcomeGolden(t *testing.T) {
	got := outcomeDigests(t)
	golden := filepath.Join("testdata", "outcomes.sha256")
	want, err := os.ReadFile(golden)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if *update && !bytes.Equal(got, want) {
		gl, _, _ := strings.Cut(string(got), "\n")
		wl, _, _ := strings.Cut(string(want), "\n")
		if gl == wl {
			t.Fatalf("outcomes moved under %s; bump StoreVersion before regenerating %s", StoreVersion, golden)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		want = got
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("outcome golden has %d lines, got %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("outcomes moved:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}

// gridSink keeps BenchmarkAdapterGrid's results live.
var gridSink *Result

// BenchmarkAdapterGrid times one adapter's full grid through Run on one
// worker with no store: the real path of a cold sweep, column adapters
// included, so -cpuprofile profiles one space at a time. One untimed
// pass first builds the adapter's cached reference traces.
func BenchmarkAdapterGrid(b *testing.B) {
	for _, ad := range Adapters() {
		b.Run(ad.Name(), func(b *testing.B) {
			pts := adapterGrid(b, ad)
			runGrid(b, ad, pts, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gridSink = runGrid(b, ad, pts, 1)
			}
		})
	}
}
