package buscode

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refMeasure is Measure before the coupling popcount: it collects every
// pattern first, then tests each adjacent line pair of each cycle one
// bit at a time.
func refMeasure(enc Encoder, words []uint32) Measurement {
	enc.Reset()
	var patterns []uint64
	for _, w := range words {
		patterns = enc.Encode(patterns, w)
	}
	m := Measurement{Cycles: uint64(len(patterns)), Lines: enc.Lines()}
	for i := 1; i < len(patterns); i++ {
		prev, cur := patterns[i-1], patterns[i]
		m.Transitions += uint64(bits.OnesCount64(prev ^ cur))
		rise := ^prev & cur
		fall := prev & ^cur
		for l := 0; l < enc.Lines()-1; l++ {
			a := rise>>uint(l)&1 == 1
			b := fall>>uint(l+1)&1 == 1
			c := fall>>uint(l)&1 == 1
			d := rise>>uint(l+1)&1 == 1
			if (a && b) || (c && d) {
				m.Couplings++
			}
		}
	}
	return m
}

// replay is an Encoder that emits canned patterns: word w emits pats[w],
// zero or more bus cycles, on a bus of the given line count.
type replay struct {
	lines int
	pats  [][]uint64
}

func (r *replay) Name() string { return "replay" }
func (r *replay) Lines() int   { return r.lines }
func (r *replay) Reset()       {}
func (r *replay) Encode(dst []uint64, w uint32) []uint64 {
	return append(dst, r.pats[w]...)
}

// indices returns 0..n-1 as words, so replay emits its patterns in order.
func indices(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func checkMeasure(t *testing.T, enc Encoder, words []uint32, what string) {
	t.Helper()
	if got, want := Measure(enc, words), refMeasure(enc, words); got != want {
		t.Fatalf("%s: Measure = %+v, reference %+v", what, got, want)
	}
}

// TestMeasureMatchesReferenceExhaustive: every (prev, cur) pattern pair
// on buses of 1 to 6 lines.
func TestMeasureMatchesReferenceExhaustive(t *testing.T) {
	for lines := 1; lines <= 6; lines++ {
		for prev := uint64(0); prev < 1<<lines; prev++ {
			for cur := uint64(0); cur < 1<<lines; cur++ {
				enc := &replay{lines: lines, pats: [][]uint64{{prev}, {cur}}}
				checkMeasure(t, enc, indices(2), "exhaustive")
			}
		}
	}
}

// TestMeasureMatchesReferenceWide: random 64-bit pattern pairs, bits
// above the line count included, on wide buses and at the edges of the
// pair mask (no lines, and more lines than a pattern has bits).
func TestMeasureMatchesReferenceWide(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, lines := range []int{0, 24, 27, 33, 64, 65} {
		for trial := 0; trial < 2000; trial++ {
			prev, cur := r.Uint64(), r.Uint64()
			if trial%2 == 0 && lines < 64 {
				prev &= 1<<lines - 1
				cur &= 1<<lines - 1
			}
			enc := &replay{lines: lines, pats: [][]uint64{{prev}, {cur}}}
			checkMeasure(t, enc, indices(2), "wide")
		}
	}
}

// TestMeasureMatchesReferenceMultiCycle: words that emit zero to three
// cycles each, so the pattern stream crosses word boundaries unevenly.
func TestMeasureMatchesReferenceMultiCycle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		enc := &replay{lines: 1 + r.Intn(64), pats: make([][]uint64, 1+r.Intn(40))}
		for i := range enc.pats {
			for c := r.Intn(4); c > 0; c-- {
				enc.pats[i] = append(enc.pats[i], r.Uint64())
			}
		}
		checkMeasure(t, enc, indices(len(enc.pats)), "multi-cycle")
	}
}

// TestEncodersMatchReference drives every encoder with random and
// mostly sequential word streams.
func TestEncodersMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	encoders := []Encoder{
		&Binary{}, &Binary{Width: 8}, &Gray{}, &Gray{Width: 12},
		&T0{Stride: 4}, &T0{Stride: 32, Width: 20}, &BusInvert{}, &BusInvert{Width: 16},
		&Shielded{Stride: 4}, &Chromatic{}, RawPixel{},
	}
	for trial := 0; trial < 40; trial++ {
		words := make([]uint32, r.Intn(500))
		addr := r.Uint32()
		for i := range words {
			switch {
			case trial%2 == 0:
				words[i] = r.Uint32()
			case r.Intn(10) == 0:
				addr = r.Uint32()
			default:
				addr += 4
			}
			if trial%2 == 1 {
				words[i] = addr
			}
		}
		for _, enc := range encoders {
			checkMeasure(t, enc, words, enc.Name())
		}
	}
}
