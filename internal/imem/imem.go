// Package imem implements application-specific instruction-memory encoding
// transformations (DATE'03 1B.3, Petrov & Orailoglu: "Power Efficiency
// through Application-Specific Instruction Memory Transformations").
//
// The instruction fetch path — instruction memory, its output bus and the
// fetch latches — dissipates energy proportional to the bit transitions
// between consecutively fetched words. The technique profiles the dynamic
// fetch stream of the target application and re-encodes instruction
// *fields* (opcode, register specifiers) through small reprogrammable
// mapping tables so that field values that frequently follow each other
// receive codes at small Hamming distance. The mapping is a bijection on
// each field, so a matching decoder in the fetch stage restores the
// original instruction with a shallow (single-gate-level) network, and the
// tables can be reprogrammed per application.
//
// Training: for each field, count the dynamic bigram frequencies of field
// values, order values in a high-affinity chain (greedy), and assign codes
// along a Gray sequence so chain neighbours differ in exactly one bit.
package imem

import (
	"fmt"
	"math/bits"
	"sort"
)

// Field is a contiguous bit field of the instruction word.
type Field struct {
	// Shift is the bit offset of the field's LSB.
	Shift uint
	// Width is the field width in bits, 1..8: training keeps a dense
	// count for every pair of values, 4^Width of them, and its chain
	// greedy scores as many.
	Width uint
}

// Mask returns the in-place bit mask of the field.
func (f Field) Mask() uint32 { return ((1 << f.Width) - 1) << f.Shift }

// Extract pulls the field value out of a word.
func (f Field) Extract(w uint32) uint32 { return (w >> f.Shift) & ((1 << f.Width) - 1) }

// Insert replaces the field in w with v.
func (f Field) Insert(w, v uint32) uint32 {
	return (w &^ f.Mask()) | ((v & ((1 << f.Width) - 1)) << f.Shift)
}

// MuRISCFields returns the re-encodable fields of the µRISC word layout
// (op, rd, rs1, rs2 and the 14-bit immediate split into two table-sized
// halves — see isa.Encode).
func MuRISCFields() []Field {
	return []Field{
		{Shift: 26, Width: 6}, // opcode
		{Shift: 22, Width: 4}, // rd
		{Shift: 18, Width: 4}, // rs1
		{Shift: 14, Width: 4}, // rs2
		{Shift: 7, Width: 7},  // imm high half
		{Shift: 0, Width: 7},  // imm low half
	}
}

// fieldMap is a bijective recoding of one field.
type fieldMap struct {
	field  Field
	encode []uint32 // original value -> code
	decode []uint32 // code -> original value
}

// Encoder is a trained set of per-field transformations.
type Encoder struct {
	maps []fieldMap
}

// Train profiles the dynamic fetch stream and builds an encoder over the
// given fields. The stream is the sequence of instruction words in fetch
// order (repetitions matter: they are the statistics being optimized).
func Train(stream []uint32, fields []Field) (*Encoder, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("imem: no fields to train")
	}
	var widest uint
	for _, f := range fields {
		if f.Width == 0 || f.Width > 8 {
			return nil, fmt.Errorf("imem: field width %d out of range (1..8)", f.Width)
		}
		widest = max(widest, f.Width)
	}
	e := &Encoder{}
	aff := make([]uint64, 1<<(2*widest))
	for _, f := range fields {
		e.maps = append(e.maps, trainField(stream, f, aff))
	}
	return e, nil
}

// trainField builds the bijection for one field. aff is the caller's
// count table, at least 4^Width long; it is cleared first.
func trainField(stream []uint32, f Field, aff []uint64) fieldMap {
	n := 1 << f.Width
	// Dynamic bigram affinity between successive distinct field values,
	// counted per unordered pair at aff[lo*n+hi], lo < hi.
	aff = aff[:n*n]
	clear(aff)
	freq := make([]uint64, n)
	var p uint32
	for i, w := range stream {
		v := f.Extract(w)
		freq[v]++
		if i > 0 {
			if p < v {
				aff[p<<f.Width|v]++
			} else if p > v {
				aff[v<<f.Width|p]++
			}
		}
		p = v
	}
	// Greedy chain: start from the most frequent value, extend by best
	// affinity to the chain tail (frequency as tie-break).
	used := make([]bool, n)
	chain := make([]uint32, 0, n)
	// Values ordered by frequency for deterministic starts/ties.
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] > freq[order[j]]
		}
		return order[i] < order[j]
	})
	chain = append(chain, order[0])
	used[order[0]] = true
	for len(chain) < n {
		tail := chain[len(chain)-1]
		var best uint32
		bestScore := uint64(0)
		found := false
		for _, cand := range order {
			if used[cand] {
				continue
			}
			lo, hi := min(tail, cand), max(tail, cand)
			score := aff[lo<<f.Width|hi]*1000 + freq[cand]
			if !found || score > bestScore {
				found = true
				best = cand
				bestScore = score
			}
		}
		chain = append(chain, best)
		used[best] = true
	}
	// Assign codes along the binary-reflected Gray sequence: chain
	// neighbours then differ in exactly one bit.
	fm := fieldMap{
		field:  f,
		encode: make([]uint32, n),
		decode: make([]uint32, n),
	}
	for pos, val := range chain {
		code := uint32(pos) ^ (uint32(pos) >> 1) // Gray code of pos
		fm.encode[val] = code
		fm.decode[code] = val
	}
	return fm
}

// Encode transforms one instruction word.
func (e *Encoder) Encode(w uint32) uint32 {
	for _, m := range e.maps {
		w = m.field.Insert(w, m.encode[m.field.Extract(w)])
	}
	return w
}

// Decode inverts Encode.
//
//lint:allow testonly verification oracle: TestEncodeDecodeBijective proves the bus code lossless by decoding through it
func (e *Encoder) Decode(w uint32) uint32 {
	for _, m := range e.maps {
		w = m.field.Insert(w, m.decode[m.field.Extract(w)])
	}
	return w
}

// Transitions counts the total bit transitions of driving the word stream
// over a 32-bit bus.
func Transitions(stream []uint32) uint64 {
	var total uint64
	for i := 1; i < len(stream); i++ {
		total += uint64(bits.OnesCount32(stream[i-1] ^ stream[i]))
	}
	return total
}

// EncodeStream applies the encoder to an entire stream.
func (e *Encoder) EncodeStream(stream []uint32) []uint32 {
	out := make([]uint32, len(stream))
	for i, w := range stream {
		out[i] = e.Encode(w)
	}
	return out
}

// Evaluate trains on trainStream and reports baseline and transformed
// transition counts on evalStream (use the same stream for the paper's
// in-sample setting, or a different one to measure generalization).
func Evaluate(trainStream, evalStream []uint32, fields []Field) (base, transformed uint64, err error) {
	e, err := Train(trainStream, fields)
	if err != nil {
		return 0, 0, err
	}
	return Transitions(evalStream), Transitions(e.EncodeStream(evalStream)), nil
}
