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

// maxOverlap is the care-list scan the conflict bitsets replaced: it
// tries k from min(len(a), bLen) down, checking only b's specified cells
// below k, in ascending position.
func maxOverlap(a Pattern, bLen int, care []careCell) int {
	for k := min(len(a), bLen); k > 0; k-- {
		off := len(a) - k
		ok := true
		for _, c := range care {
			if c.pos >= k {
				break
			}
			if ca := a[off+c.pos]; ca != X && ca != c.val {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return 0
}

// overlap runs the conflict-bitset scan for one (response, pattern) pair.
func overlap(a, b Pattern) int {
	var c conflicts
	c.reset(a)
	return c.maxOverlap(len(b), careCells(b))
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

// wordEdges are the lengths at which an overlap meets or crosses a 64-bit
// word boundary.
var wordEdges = []int{63, 64, 65, 128, 129}

// randomLength draws a length in 0..200, or a word edge one time in four.
func randomLength(r *rand.Rand) int {
	if r.Intn(4) == 0 {
		return wordEdges[r.Intn(len(wordEdges))]
	}
	return r.Intn(201)
}

// TestMaxOverlapMatchesReference: on patterns of unequal lengths where
// both sides may hold X, the conflict-bitset scan and the care-list scan
// find the brute-force overlap at every pair of care densities.
func TestMaxOverlapMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, da := range careDensities {
		for _, db := range careDensities {
			for trial := 0; trial < 200; trial++ {
				a := randomPattern(r, randomLength(r), da)
				b := randomPattern(r, randomLength(r), db)
				want := refMaxOverlap(a, b)
				if got := overlap(a, b); got != want {
					t.Fatalf("density %v/%v: overlap(%v, %v) = %d, reference %d", da, db, a, b, got, want)
				}
				if got := maxOverlap(a, len(b), careCells(b)); got != want {
					t.Fatalf("density %v/%v: care-list maxOverlap(%v, %v) = %d, reference %d", da, db, a, b, got, want)
				}
			}
		}
	}
}

// TestMaxOverlapAtWordEdges: every pair of word-edge lengths against a
// pattern with a single care cell, whose ruled-out overlaps then spread
// across every word of the scan.
func TestMaxOverlapAtWordEdges(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, la := range wordEdges {
		for _, lb := range wordEdges {
			for trial := 0; trial < 50; trial++ {
				a := randomPattern(r, la, 1)
				b := make(Pattern, lb)
				for i := range b {
					b[i] = X
				}
				p := r.Intn(lb)
				b[p] = Cell(r.Intn(2))
				if got, want := overlap(a, b), refMaxOverlap(a, b); got != want {
					t.Fatalf("lengths %d/%d, care at %d: overlap = %d, reference %d", la, lb, p, got, want)
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
			n, length := 1+r.Intn(30), randomLength(r)
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
