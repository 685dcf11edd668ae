// Package testcomp implements scan test-data compression, reproducing two
// results of DATE'03 session 2C:
//
//   - 2C.3 (Knieser et al., "A Technique for High Ratio LZW Compression"):
//     scan test patterns are mostly don't-cares; filling the X bits so the
//     resulting byte stream is repetitive lets a dictionary coder (LZW)
//     reach high compression ratios, far beyond what 0-fill achieves.
//
//   - 2C.1 (Rao & Orailoglu, "Virtual Compression through Test Vector
//     Stitching"): consecutive scan vectors can overlap when the suffix of
//     one is compatible (on specified bits) with the prefix of the next,
//     cutting test application time with zero hardware overhead.
//
// The LZW codec is a real encoder/decoder pair (property-tested lossless);
// patterns are ternary strings over {0, 1, X}.
package testcomp

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Cell is one scan cell value.
type Cell byte

// Scan cell values.
const (
	Zero Cell = iota
	One
	X
)

// Pattern is one scan vector.
type Pattern []Cell

// Generate creates n patterns of the given length with the given care-bit
// density; specified bits appear in small clusters, as ATPG produces.
func Generate(seed int64, n, length int, careDensity float64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pattern, n)
	for i := range out {
		p := make(Pattern, length)
		for j := range p {
			p[j] = X
		}
		// Place clusters of specified bits until density is reached.
		want := int(careDensity * float64(length))
		placed := 0
		for placed < want {
			pos := rng.Intn(length)
			run := 1 + rng.Intn(4)
			for k := 0; k < run && pos+k < length && placed < want; k++ {
				if p[pos+k] == X {
					placed++
				}
				p[pos+k] = Cell(rng.Intn(2))
			}
		}
		out[i] = p
	}
	return out
}

// FillPolicy decides the values of don't-care cells before compression.
type FillPolicy int

// Fill policies.
const (
	// FillZero sets every X to 0 (the naive baseline).
	FillZero FillPolicy = iota
	// FillRepeat copies the previous cell value into each X, producing
	// long runs — the dictionary-coder-friendly fill of the paper.
	FillRepeat
	// FillRandom sets X randomly (the adversarial control).
	FillRandom
)

// String names the policy.
func (f FillPolicy) String() string {
	switch f {
	case FillZero:
		return "0-fill"
	case FillRepeat:
		return "repeat-fill"
	case FillRandom:
		return "random-fill"
	}
	return "?"
}

// Fill resolves the don't-cares of a pattern sequence into a packed byte
// stream (8 cells per byte, MSB first).
func Fill(patterns []Pattern, policy FillPolicy, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var bits []byte
	last := byte(0)
	for _, p := range patterns {
		for _, c := range p {
			var b byte
			switch c {
			case Zero:
				b = 0
			case One:
				b = 1
			default:
				switch policy {
				case FillZero:
					b = 0
				case FillRepeat:
					b = last
				default:
					b = byte(rng.Intn(2))
				}
			}
			last = b
			bits = append(bits, b)
		}
	}
	// Pack.
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b == 1 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}

// LZWEncode compresses data with a 12-bit-code LZW dictionary (reset when
// full), returning the code stream.
func LZWEncode(data []byte) []uint16 {
	const maxCodes = 1 << 12
	dict := make(map[string]uint16, maxCodes)
	for i := 0; i < 256; i++ {
		dict[string([]byte{byte(i)})] = uint16(i)
	}
	next := uint16(256)
	var out []uint16
	var cur []byte
	for _, b := range data {
		ext := append(cur, b)
		if _, ok := dict[string(ext)]; ok {
			cur = ext
			continue
		}
		out = append(out, dict[string(cur)])
		if int(next) < maxCodes {
			dict[string(ext)] = next
			next++
		} else {
			// Dictionary full: reset (keeps the decoder in sync).
			dict = make(map[string]uint16, maxCodes)
			for i := 0; i < 256; i++ {
				dict[string([]byte{byte(i)})] = uint16(i)
			}
			next = 256
		}
		cur = []byte{b}
	}
	if len(cur) > 0 {
		out = append(out, dict[string(cur)])
	}
	return out
}

// LZWDecode inverts LZWEncode.
//
//lint:allow testonly verification oracle: TestLZWRoundTripProperty and its siblings prove the test-data compression lossless through it
func LZWDecode(codes []uint16) ([]byte, error) {
	const maxCodes = 1 << 12
	dict := make(map[uint16][]byte, maxCodes)
	reset := func() uint16 {
		dict = make(map[uint16][]byte, maxCodes)
		for i := 0; i < 256; i++ {
			dict[uint16(i)] = []byte{byte(i)}
		}
		return 256
	}
	next := reset()
	var out []byte
	var prev []byte
	for _, code := range codes {
		var entry []byte
		if e, ok := dict[code]; ok {
			entry = append([]byte(nil), e...)
		} else if int(code) == int(next) && len(prev) > 0 && int(next) < maxCodes {
			// The classic KwKwK case: the code references the entry the
			// encoder added in the same step.
			entry = append(append([]byte(nil), prev...), prev[0])
		} else {
			return nil, fmt.Errorf("testcomp: invalid LZW code %d", code)
		}
		out = append(out, entry...)
		// Pending dictionary add for the previous code — or the mirrored
		// encoder reset when the dictionary is full. Right after a reset
		// the encoder only ever emits single-byte codes (< 256), so
		// resolving against the pre-reset dictionary above is safe.
		if len(prev) > 0 {
			if int(next) < maxCodes {
				dict[next] = append(append([]byte(nil), prev...), entry[0])
				next++
			} else {
				next = reset()
			}
		}
		prev = entry
	}
	return out, nil
}

// Ratio returns original bits / compressed bits for a 12-bit code stream.
func Ratio(originalBytes int, codes []uint16) float64 {
	if len(codes) == 0 {
		return 0
	}
	return float64(originalBytes*8) / float64(len(codes)*12)
}

// --- Vector stitching (2C.1) ---

// careCell is one specified cell of a pattern.
type careCell struct {
	pos int
	val Cell
}

// careCells lists the specified cells of p in ascending position. Only
// these can make an overlap incompatible.
func careCells(p Pattern) []careCell {
	n := 0
	for _, c := range p {
		if c != X {
			n++
		}
	}
	cells := make([]careCell, 0, n)
	for i, c := range p {
		if c != X {
			cells = append(cells, careCell{i, c})
		}
	}
	return cells
}

// conflicts holds one response's conflict bitsets over t in [1, len]:
// bit t of m[v] is set iff response[len-t] is specified and differs from
// v. A care cell (p, v) of the next pattern meets response cell len-t
// exactly when the overlap is k = t+p, so it rules out the overlaps
// {t+p : bit t of m[v] set}.
type conflicts struct {
	n int
	m [2][]uint64
}

// reset rebuilds the bitsets for response a, reusing their storage.
func (c *conflicts) reset(a Pattern) {
	c.n = len(a)
	words := len(a)/64 + 1
	for v := range c.m {
		if cap(c.m[v]) < words {
			c.m[v] = make([]uint64, words)
		}
		c.m[v] = c.m[v][:words]
		clear(c.m[v])
	}
	for t := 1; t <= len(a); t++ {
		switch a[len(a)-t] {
		case Zero:
			c.m[One][t>>6] |= 1 << (t & 63)
		case One:
			c.m[Zero][t>>6] |= 1 << (t & 63)
		}
	}
}

// window returns bits [s, s+64) of b, for s below 64*len(b); bits below
// 0 or past the end read as zero.
func window(b []uint64, s int) uint64 {
	if s < 0 {
		return b[0] << uint(-s)
	}
	i, o := s>>6, uint(s&63)
	w := b[i] >> o
	if i+1 < len(b) {
		w |= b[i+1] << (64 - o)
	}
	return w
}

// maxOverlap returns the largest k such that the last k cells of the
// response are compatible with the first k cells of a pattern b of
// length bLen whose specified cells are care: equal wherever both are
// specified. It scans the candidates k in 64-wide words from the top
// down. A word starts with its candidates 1 <= k <= min(len, bLen) live;
// the care cells below the word's top candidate, in ascending position,
// each clear the overlaps they rule out, until none is left. The first
// word with a live candidate gives its highest.
func (c *conflicts) maxOverlap(bLen int, care []careCell) int {
	kmax := min(c.n, bLen)
	for base := kmax &^ 63; base >= 0; base -= 64 {
		top := min(kmax, base+63)
		live := ^uint64(0) >> uint(63-(top-base))
		if base == 0 {
			live &^= 1
		}
		for _, cc := range care {
			if cc.pos >= top || live == 0 {
				break
			}
			live &^= window(c.m[cc.val], base-cc.pos)
		}
		if live != 0 {
			return base + 63 - bits.LeadingZeros64(live)
		}
	}
	return 0
}

// StitchResult reports the outcome of greedy stitching.
type StitchResult struct {
	// Order is the vector application order.
	Order []int
	// BaselineCycles is n*length (each vector scanned in full).
	BaselineCycles int
	// StitchedCycles is the total after overlapping.
	StitchedCycles int
}

// Saving returns the test-time reduction fraction.
func (r StitchResult) Saving() float64 {
	if r.BaselineCycles == 0 {
		return 0
	}
	return 1 - float64(r.StitchedCycles)/float64(r.BaselineCycles)
}

// Responses derives deterministic fully-specified capture responses for a
// pattern set (a stand-in for fault simulation: the DUT's response to
// vector i). While the next vector shifts in, this response shifts out
// through the same chain, so it is the response — not the previous
// vector — that the next vector can overlap with.
func Responses(patterns []Pattern, seed int64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pattern, len(patterns))
	for i, p := range patterns {
		r := make(Pattern, len(p))
		for j := range r {
			r[j] = Cell(rng.Intn(2))
		}
		out[i] = r
	}
	return out
}

// Stitch greedily orders the patterns to maximize the overlap between each
// vector's capture response and the next vector's specified bits
// (nearest-neighbour chaining starting from vector 0). Responses must be
// index-aligned with patterns.
func Stitch(patterns, responses []Pattern) StitchResult {
	n := len(patterns)
	res := StitchResult{}
	if n == 0 {
		return res
	}
	length := len(patterns[0])
	res.BaselineCycles = n * length
	care := make([][]careCell, n)
	for i, p := range patterns {
		care[i] = careCells(p)
	}
	var resp conflicts
	used := make([]bool, n)
	cur := 0
	used[0] = true
	res.Order = []int{0}
	total := length
	for placed := 1; placed < n; placed++ {
		best, bestOv := -1, -1
		resp.reset(responses[cur])
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			ov := resp.maxOverlap(len(patterns[j]), care[j])
			if ov > bestOv {
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
