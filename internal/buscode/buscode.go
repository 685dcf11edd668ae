// Package buscode implements low-power and signal-integrity bus encoding
// schemes evaluated at DATE'03: classic binary, Gray, T0 and bus-invert
// codes, the one-extra-line shielded address encoding of session 6F.3, and
// the chromatic DVI pixel encoding of session 8B.3 (chromatic.go).
//
// An Encoder maps a logical word sequence onto a physical line-pattern
// sequence; one logical word may occupy several bus cycles (that is how
// the shielded code buys its integrity guarantee). Costs are measured by
// Measure: self transitions, opposite-direction adjacent-line coupling
// events, bus cycles and physical line count.
//
//lint:hotpath
package buscode

import (
	"math/bits"
)

// Encoder maps one logical word to one or more physical line patterns.
// Encoders are stateful (most codes depend on the previous word); Reset
// restores the initial state.
type Encoder interface {
	// Name identifies the scheme in tables.
	Name() string
	// Lines is the number of physical bus lines used.
	Lines() int
	// Encode appends the physical pattern(s) for word to dst and returns
	// the extended slice.
	Encode(dst []uint64, word uint32) []uint64
	// Reset restores initial encoder state.
	Reset()
}

// Measure drives the word stream through the encoder and accounts the
// physical activity.
type Measurement struct {
	// Transitions is the total number of line toggles.
	Transitions uint64
	// Couplings is the number of opposite-direction toggles on adjacent
	// line pairs (the crosstalk/energy-relevant events).
	Couplings uint64
	// Cycles is the number of bus cycles used (≥ len(words)).
	Cycles uint64
	// Lines is the physical line count.
	Lines int
}

// PerfOverhead returns the fractional cycle overhead versus one word per
// cycle.
func (m Measurement) PerfOverhead(words int) float64 {
	if words == 0 {
		return 0
	}
	return float64(m.Cycles)/float64(words) - 1
}

// Measure runs words through enc and returns the accounting. Patterns
// stream through a per-word buffer. Bit l of the coupling word
// rise&(fall>>1) | fall&(rise>>1) is set iff lines l and l+1 toggle in
// opposite directions, so one popcount over the lines-1 adjacent pairs
// counts a cycle's coupling events.
func Measure(enc Encoder, words []uint32) Measurement {
	enc.Reset()
	m := Measurement{Lines: enc.Lines()}
	var pairs uint64
	if m.Lines > 1 {
		pairs = uint64(1)<<uint(m.Lines-1) - 1
	}
	var buf []uint64
	var prev uint64
	for _, w := range words {
		buf = enc.Encode(buf[:0], w)
		for _, cur := range buf {
			if m.Cycles > 0 {
				m.Transitions += uint64(bits.OnesCount64(prev ^ cur))
				rise, fall := ^prev&cur, prev&^cur
				m.Couplings += uint64(bits.OnesCount64((rise&(fall>>1) | fall&(rise>>1)) & pairs))
			}
			prev = cur
			m.Cycles++
		}
	}
	return m
}

// Binary is the unencoded baseline.
type Binary struct {
	// Width is the logical word width in bits (default 32).
	Width int
}

// Name returns "binary".
func (b *Binary) Name() string { return "binary" }

// Lines returns the line count.
func (b *Binary) Lines() int { return b.width() }

func (b *Binary) width() int {
	if b.Width == 0 {
		return 32
	}
	return b.Width
}

// Encode emits the word unchanged.
func (b *Binary) Encode(dst []uint64, word uint32) []uint64 {
	mask := uint64(1)<<uint(b.width()) - 1
	return append(dst, uint64(word)&mask)
}

// Reset is a no-op.
func (b *Binary) Reset() {}

// Gray transmits the Gray code of each word: consecutive numeric values
// differ on exactly one line, ideal for sequential address streams.
type Gray struct {
	Width int
}

// Name returns "gray".
func (g *Gray) Name() string { return "gray" }

// Lines returns the line count.
func (g *Gray) Lines() int {
	if g.Width == 0 {
		return 32
	}
	return g.Width
}

// Encode emits word ^ (word >> 1).
func (g *Gray) Encode(dst []uint64, word uint32) []uint64 {
	mask := uint64(1)<<uint(g.Lines()) - 1
	return append(dst, uint64(word^(word>>1))&mask)
}

// Reset is a no-op.
func (g *Gray) Reset() {}

// T0 freezes the bus on in-sequence addresses and signals them on a
// dedicated INC line (one extra line, zero transitions for sequential
// streams).
type T0 struct {
	// Stride is the expected sequential increment (4 for a 32-bit
	// instruction bus).
	Stride uint32
	Width  int

	prev    uint32
	started bool
	lastPat uint64
}

// Name returns "t0".
func (t *T0) Name() string { return "t0" }

// Lines returns data width + 1 (INC line).
func (t *T0) Lines() int {
	w := t.Width
	if w == 0 {
		w = 32
	}
	return w + 1
}

// Encode emits either the frozen pattern with INC set, or the raw word.
func (t *T0) Encode(dst []uint64, word uint32) []uint64 {
	w := t.Lines() - 1
	mask := uint64(1)<<uint(w) - 1
	incBit := uint64(1) << uint(w)
	var pat uint64
	if t.started && word == t.prev+t.Stride {
		// In sequence: keep data lines, raise INC.
		pat = (t.lastPat & mask) | incBit
	} else {
		pat = uint64(word) & mask
	}
	t.prev = word
	t.started = true
	t.lastPat = pat
	return append(dst, pat)
}

// Reset clears the sequence state.
func (t *T0) Reset() { t.prev, t.started, t.lastPat = 0, false, 0 }

// BusInvert sends the complemented word (with an invert line raised) when
// that halves the Hamming distance to the previous pattern.
type BusInvert struct {
	Width int

	lastPat uint64
	started bool
}

// Name returns "businvert".
func (b *BusInvert) Name() string { return "businvert" }

// Lines returns data width + 1 (invert line).
func (b *BusInvert) Lines() int {
	w := b.Width
	if w == 0 {
		w = 32
	}
	return w + 1
}

// Encode emits word or its complement, whichever toggles fewer lines.
func (b *BusInvert) Encode(dst []uint64, word uint32) []uint64 {
	w := b.Lines() - 1
	mask := uint64(1)<<uint(w) - 1
	invBit := uint64(1) << uint(w)
	plain := uint64(word) & mask
	inverted := ^uint64(word)&mask | invBit
	pat := plain
	if b.started {
		if bits.OnesCount64(b.lastPat^inverted) < bits.OnesCount64(b.lastPat^plain) {
			pat = inverted
		}
	}
	b.lastPat = pat
	b.started = true
	return append(dst, pat)
}

// Reset clears the history.
func (b *BusInvert) Reset() { b.lastPat, b.started = 0, false }

// Shielded implements the one-extra-line signal-integrity address encoding
// of DATE'03 6F.3 (Lv, Wolf, Henkel, Lekatsas): data is driven only on
// every other physical line, so any two signal-carrying lines are
// separated by a grounded line and opposite-direction coupling is
// impossible by construction. A 32-bit address therefore needs two bus
// cycles (16 data lines interleaved with grounds) — except that address
// streams are overwhelmingly in-sequence, and in-sequence addresses are
// signalled in a single cycle by toggling the dedicated SEQ line alone.
// Physical lines: 16 data (even positions) + 16 grounds (odd positions) +
// SEQ = 33, one more than the plain 32-bit bus.
type Shielded struct {
	// Stride is the in-sequence increment.
	Stride uint32

	prev    uint32
	started bool
	seqLvl  uint64 // SEQ line level (toggles per sequential word)
	dataPat uint64 // current data-line pattern
}

// Name returns "shielded".
func (s *Shielded) Name() string { return "shielded" }

// Lines returns the 33 physical lines.
func (s *Shielded) Lines() int { return 33 }

// spread places the low 16 bits of half onto even line positions 0,2,..30.
func spread(half uint32) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		if half>>uint(i)&1 == 1 {
			out |= 1 << uint(2*i)
		}
	}
	return out
}

// Encode emits one cycle for in-sequence words, two otherwise.
func (s *Shielded) Encode(dst []uint64, word uint32) []uint64 {
	const seqLine = 32 // position of the SEQ line
	if s.started && word == s.prev+s.Stride {
		s.prev = word
		s.seqLvl ^= 1
		return append(dst, s.dataPat|s.seqLvl<<seqLine)
	}
	s.prev = word
	s.started = true
	lo := spread(word & 0xFFFF)
	hi := spread(word >> 16)
	dst = append(dst, lo|s.seqLvl<<seqLine)
	s.dataPat = hi
	return append(dst, hi|s.seqLvl<<seqLine)
}

// Reset clears the sequence state.
func (s *Shielded) Reset() { s.prev, s.started, s.seqLvl, s.dataPat = 0, false, 0, 0 }
