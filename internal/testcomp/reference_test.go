package testcomp

import (
	"math/rand"
	"testing"
)

// refMaxOverlap is the brute-force overlap: every k from the longest
// down, every cell of each overlap.
func refMaxOverlap(a, b Pattern) int {
	max := len(a)
	if len(b) < max {
		max = len(b)
	}
	for k := max; k > 0; k-- {
		ok := true
		for i := len(a) - k; i < len(a) && i-(len(a)-k) < len(b); i++ {
			ca, cb := a[i], b[i-(len(a)-k)]
			if ca != X && cb != X && ca != cb {
				ok = false
			}
		}
		if ok {
			return k
		}
	}
	return 0
}

// refStitch is the greedy nearest-neighbour chaining over refMaxOverlap.
func refStitch(patterns, responses []Pattern) StitchResult {
	n := len(patterns)
	res := StitchResult{}
	if n == 0 {
		return res
	}
	length := len(patterns[0])
	res.BaselineCycles = n * length
	used := make([]bool, n)
	cur := 0
	used[0] = true
	res.Order = []int{0}
	total := length
	for placed := 1; placed < n; placed++ {
		best, bestOv := -1, -1
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if ov := refMaxOverlap(responses[cur], patterns[j]); ov > bestOv {
				best, bestOv = j, ov
			}
		}
		used[best] = true
		res.Order = append(res.Order, best)
		total += length - bestOv
		cur = best
	}
	res.StitchedCycles = total
	return res
}

// randomPattern draws length cells, each specified with probability care.
func randomPattern(r *rand.Rand, length int, care float64) Pattern {
	p := make(Pattern, length)
	for i := range p {
		p[i] = X
		if r.Float64() < care {
			p[i] = Cell(r.Intn(2))
		}
	}
	return p
}

var careDensities = []float64{0, 0.02, 0.5, 1}

// TestMaxOverlapMatchesReference: on patterns of unequal lengths where
// both sides may hold X, the care-list scan finds the brute-force
// overlap at every pair of care densities.
func TestMaxOverlapMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, da := range careDensities {
		for _, db := range careDensities {
			for trial := 0; trial < 200; trial++ {
				a := randomPattern(r, r.Intn(40), da)
				b := randomPattern(r, r.Intn(40), db)
				if got, want := maxOverlap(a, len(b), careCells(b)), refMaxOverlap(a, b); got != want {
					t.Fatalf("density %v/%v: maxOverlap(%v, %v) = %d, reference %d", da, db, a, b, got, want)
				}
			}
		}
	}
}

// TestStitchMatchesReference: greedy stitching over care lists picks the
// reference order and cycle count, with responses that contain X and
// patterns at care densities from none to full.
func TestStitchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, care := range careDensities {
		for trial := 0; trial < 20; trial++ {
			n, length := 1+r.Intn(30), 1+r.Intn(48)
			patterns := make([]Pattern, n)
			responses := make([]Pattern, n)
			for i := range patterns {
				patterns[i] = randomPattern(r, length, care)
				responses[i] = randomPattern(r, length, 0.8)
			}
			got, want := Stitch(patterns, responses), refStitch(patterns, responses)
			if got.StitchedCycles != want.StitchedCycles || got.BaselineCycles != want.BaselineCycles {
				t.Fatalf("care %v trial %d: cycles %d/%d, reference %d/%d", care, trial,
					got.StitchedCycles, got.BaselineCycles, want.StitchedCycles, want.BaselineCycles)
			}
			for i := range want.Order {
				if got.Order[i] != want.Order[i] {
					t.Fatalf("care %v trial %d: order %v, reference %v", care, trial, got.Order, want.Order)
				}
			}
		}
	}
}
