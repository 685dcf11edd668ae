package sweep

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// surfaceSampleSizes and surfaceSeeds span the Sample calls the surface
// golden pins: a single point, sizes below and above each space's grid,
// and the sizes the CLI and HTTP tests use.
var (
	surfaceSampleSizes = []int{1, 7, 20, 64, 200, 1000}
	surfaceSeeds       = []int64{0, 1, 5, 42}
)

// surfaceDigests renders one "space section sha256" line per section of
// every adapter's enumeration surface: the axes with the raw grid size,
// every grid point's canonical form and store key, and every pinned
// Sample call. Everything a store key or a report is built from flows
// through these, so a line that moves names what changed.
func surfaceDigests(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	line := func(space, section string, h hash.Hash) {
		fmt.Fprintf(&b, "%s %s %x\n", space, section, h.Sum(nil))
	}
	points := func(h hash.Hash, name string, pts []Point) {
		for _, p := range pts {
			fmt.Fprintf(h, "%s %s\n", p.Canonical(), Key(name, StoreVersion, p.Canonical()))
		}
	}
	for _, ad := range Adapters() {
		name, sp := ad.Name(), ad.Space()

		h := sha256.New()
		for _, a := range sp.Axes {
			fmt.Fprintf(h, "%s|%s|%v|%v|%d|%q\n", a.Name, a.Kind, a.Min, a.Max, a.Steps, a.Values)
		}
		for _, c := range sp.Constraints {
			fmt.Fprintf(h, "constraint|%s\n", c.Name)
		}
		fmt.Fprintf(h, "grid_size|%d\n", sp.GridSize())
		line(name, "axes", h)

		grid, err := sp.Grid()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h = sha256.New()
		points(h, name, grid)
		line(name, "grid", h)

		for _, n := range surfaceSampleSizes {
			for _, seed := range surfaceSeeds {
				pts, err := sp.Sample(n, seed)
				if err != nil {
					t.Fatalf("%s: Sample(%d, %d): %v", name, n, seed, err)
				}
				h = sha256.New()
				points(h, name, pts)
				line(name, fmt.Sprintf("sample/n=%d/seed=%d", n, seed), h)
			}
		}
	}
	return b.Bytes()
}

// TestSurfaceGolden pins every adapter's axes, grid and samples to the
// digests in testdata/surfaces.sha256, so a refactor of the space code
// cannot move a point, a canonical form or a store key unnoticed.
// Regenerate with `go test ./internal/sweep -run SurfaceGolden -update`
// only for a deliberate change, and bump StoreVersion with it.
func TestSurfaceGolden(t *testing.T) {
	got := surfaceDigests(t)
	golden := filepath.Join("testdata", "surfaces.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("surface golden has %d lines, got %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("surface moved:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
