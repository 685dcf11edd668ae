package testcomp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLZWRoundTripSimple(t *testing.T) {
	cases := [][]byte{
		[]byte("TOBEORNOTTOBEORTOBEORNOT"),
		make([]byte, 1000), // all zeros
		{0},
		{},
	}
	for i, data := range cases {
		codes := LZWEncode(data)
		back, err := LZWDecode(codes)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

// TestLZWRoundTripProperty: lossless on arbitrary data.
func TestLZWRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		back, err := LZWDecode(LZWEncode(data))
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLZWRoundTripLongRepetitive exercises dictionary resets (needs more
// than 4096 dictionary entries' worth of input).
func TestLZWRoundTripLongRepetitive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := make([]byte, 200_000)
	for i := range data {
		// Mixed structure: runs plus noise, to churn the dictionary.
		if i%3 == 0 {
			data[i] = byte(r.Intn(256))
		} else {
			data[i] = byte(i / 97)
		}
	}
	codes := LZWEncode(data)
	back, err := LZWDecode(codes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("long round trip mismatch")
	}
}

func TestLZWDecodeRejectsGarbage(t *testing.T) {
	if _, err := LZWDecode([]uint16{3000}); err == nil {
		t.Fatal("out-of-dictionary first code must error")
	}
}

func TestGenerateDensity(t *testing.T) {
	ps := Generate(1, 50, 400, 0.05)
	if len(ps) != 50 {
		t.Fatal("wrong count")
	}
	total := 0.0
	for _, p := range ps {
		total += float64(len(careCells(p))) / float64(len(p))
	}
	avg := total / float64(len(ps))
	if avg < 0.03 || avg > 0.08 {
		t.Fatalf("care density = %.3f, want ~0.05", avg)
	}
}

// TestXAwareFillsCrushFullySpecified reproduces the 2C.3 claim: filling
// the don't-cares coherently (0-fill or repeat-fill) yields far higher
// LZW ratios than the fully-specified equivalent (random fill, i.e. not
// leveraging the don't-cares at all).
func TestXAwareFillsCrushFullySpecified(t *testing.T) {
	ps := Generate(2, 100, 512, 0.04)
	ratios := map[FillPolicy]float64{}
	for _, pol := range []FillPolicy{FillZero, FillRepeat, FillRandom} {
		stream := Fill(ps, pol, 3)
		codes := LZWEncode(stream)
		// Verify losslessness on the real payload too.
		back, err := LZWDecode(codes)
		if err != nil || !bytes.Equal(back, stream) {
			t.Fatalf("%v: round trip failed: %v", pol, err)
		}
		ratios[pol] = Ratio(len(stream), codes)
	}
	t.Logf("ratios: zero=%.1f repeat=%.1f random=%.1f",
		ratios[FillZero], ratios[FillRepeat], ratios[FillRandom])
	best := ratios[FillZero]
	if ratios[FillRepeat] > best {
		best = ratios[FillRepeat]
	}
	if best < 5*ratios[FillRandom] {
		t.Errorf("X-aware fill (%.1f) should be >= 5x the fully-specified ratio (%.1f)",
			best, ratios[FillRandom])
	}
	if best < 4 {
		t.Errorf("best X-aware ratio %.1f too low for 4%% care bits", best)
	}
}

// TestFillPreservesSpecifiedBits: filling may only touch X cells.
func TestFillPreservesSpecifiedBits(t *testing.T) {
	ps := Generate(4, 10, 256, 0.1)
	stream := Fill(ps, FillRepeat, 1)
	idx := 0
	for _, p := range ps {
		for _, c := range p {
			bit := stream[idx/8] >> uint(7-idx%8) & 1
			if c == Zero && bit != 0 {
				t.Fatalf("specified 0 overwritten at %d", idx)
			}
			if c == One && bit != 1 {
				t.Fatalf("specified 1 overwritten at %d", idx)
			}
			idx++
		}
	}
}

func TestMaxOverlap(t *testing.T) {
	a := Pattern{One, Zero, X, One}
	b := Pattern{X, One, Zero, Zero}
	// Suffix of a of length 4: (1,0,X,1) vs prefix of b (X,1,0,0):
	// position 1: 0 vs 1 conflict -> not 4. k=3: (0,X,1) vs (X,1,0):
	// last cell 1 vs 0 conflict. k=2: (X,1) vs (X,1) ok.
	if got := overlap(a, b); got != 2 {
		t.Fatalf("overlap = %d, want 2", got)
	}
	full := Pattern{X, X, X}
	if got := overlap(full, full); got != 3 {
		t.Fatalf("all-X overlap = %d, want 3", got)
	}
}

// TestStitchSavesTime: sparse vectors overlap heavily, cutting cycles.
func TestStitchSavesTime(t *testing.T) {
	ps := Generate(5, 40, 200, 0.05)
	res := Stitch(ps, Responses(ps, 9))
	t.Logf("stitching: %d -> %d cycles (%.1f%% saved)",
		res.BaselineCycles, res.StitchedCycles, 100*res.Saving())
	if res.StitchedCycles >= res.BaselineCycles {
		t.Fatal("stitching saved nothing")
	}
	if res.Saving() < 0.2 {
		t.Errorf("saving = %.2f, want >= 0.2 for 5%% care bits", res.Saving())
	}
	// Order must be a permutation.
	seen := map[int]bool{}
	for _, i := range res.Order {
		if seen[i] {
			t.Fatal("duplicate vector in order")
		}
		seen[i] = true
	}
	if len(seen) != len(ps) {
		t.Fatal("order does not cover all vectors")
	}
}

func TestStitchEmpty(t *testing.T) {
	res := Stitch(nil, nil)
	if res.BaselineCycles != 0 || res.StitchedCycles != 0 {
		t.Fatal("empty stitch should be zero")
	}
}
