package clocktree

import (
	"math/rand"
	"testing"
)

// grid16 returns a 4x4 grid of sinks.
func grid16() []Sink {
	var sinks []Sink
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			sinks = append(sinks, Sink{X: float64(x) * 10, Y: float64(y) * 10})
		}
	}
	return sinks
}

func TestBuildGeometricCoversAllSinks(t *testing.T) {
	sinks := grid16()
	tree, err := BuildGeometric(sinks)
	if err != nil {
		t.Fatal(err)
	}
	paths := tree.leafPaths()
	if len(paths) != len(sinks) {
		t.Fatalf("tree covers %d sinks, want %d", len(paths), len(sinks))
	}
	if _, err := BuildGeometric(nil); err == nil {
		t.Fatal("empty sink set must error")
	}
}

func TestBuildCriticalValidation(t *testing.T) {
	if _, err := BuildCritical(grid16(), []CritPair{{A: 0, B: 99, Weight: 1}}); err == nil {
		t.Fatal("bad pair index must error")
	}
}

// TestSiblingsShareAlmostEverything: two sinks merged as direct siblings
// have uncommon length equal to their two leaf stubs only.
func TestSiblingsShareAlmostEverything(t *testing.T) {
	sinks := []Sink{{0, 0}, {2, 0}, {50, 50}, {52, 50}}
	pairs := []CritPair{{A: 0, B: 1, Weight: 10}}
	tree, err := BuildCritical(sinks, pairs)
	if err != nil {
		t.Fatal(err)
	}
	u, err := tree.UncommonLength(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Merge point is the midpoint (1,0): two stubs of length 1 each.
	if u > 2.1 {
		t.Fatalf("sibling uncommon length = %f, want ~2", u)
	}
}

// TestCriticalBeatsGeometric is the paper's headline on a construction
// where the critical pairs straddle the geometric cut: the
// criticality-driven topology must sharply reduce weighted uncertainty.
func TestCriticalBeatsGeometric(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var sinks []Sink
	for i := 0; i < 24; i++ {
		sinks = append(sinks, Sink{X: r.Float64() * 100, Y: r.Float64() * 100})
	}
	// Critical pairs chosen adversarially for the geometric cut: pairs
	// across the die midline.
	var pairs []CritPair
	for i := 0; i < 8; i++ {
		a := r.Intn(len(sinks))
		b := r.Intn(len(sinks))
		if a == b {
			continue
		}
		pairs = append(pairs, CritPair{A: a, B: b, Weight: 1 + 4*r.Float64()})
	}
	geo, err := BuildGeometric(sinks)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := BuildCritical(sinks, pairs)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := geo.Uncertainty(pairs)
	if err != nil {
		t.Fatal(err)
	}
	uc, err := crit.Uncertainty(pairs)
	if err != nil {
		t.Fatal(err)
	}
	saving := 100 * (ug - uc) / ug
	t.Logf("uncertainty: geometric=%.1f critical=%.1f (%.1f%% reduction)", ug, uc, saving)
	if uc >= ug {
		t.Fatalf("criticality-driven tree did not reduce uncertainty (%.1f >= %.1f)", uc, ug)
	}
	if saving < 20 {
		t.Errorf("reduction = %.1f%%, want >= 20%%", saving)
	}
}

// TestUncommonLengthSymmetric and errors.
func TestUncommonLengthProperties(t *testing.T) {
	sinks := grid16()
	tree, err := BuildGeometric(sinks)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tree.UncommonLength(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.UncommonLength(15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("uncommon length not symmetric: %f vs %f", a, b)
	}
	if _, err := tree.UncommonLength(0, 99); err == nil {
		t.Fatal("unknown sink must error")
	}
}
