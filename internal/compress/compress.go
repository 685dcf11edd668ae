// Package compress implements the on-the-fly differential cache-line
// compression of DATE'03 1B.2 ("A New Algorithm for Energy-Driven Data
// Compression in VLIW Embedded Processors"): a dirty D-cache line is
// compressed by a small hardware unit before write-back to main memory and
// decompressed on refill, cutting main-memory traffic and the energy of
// the high-throughput global bus.
//
// The codec is word-differential: the first 32-bit word of a line is
// stored verbatim; every following word is encoded as its difference from
// the previous word, with a 2-bit tag selecting a 0/1/2/4-byte delta.
// Numeric data in media workloads is strongly value-local (small deltas),
// which is exactly what the original differential technique exploits.
// The codec is a real encoder/decoder pair, not a size estimator; a
// property test verifies lossless round-trips.
//
// MeasureTraffic (traffic.go) prices a trace's boundary traffic: a
// tag-only internal/cache decides which lines cross, and their bytes are
// read from a trace.Memory image that the replay keeps up to date.
//
//lint:hotpath
package compress

import (
	"encoding/binary"
	"fmt"
)

// Codec compresses and decompresses fixed-size cache lines.
type Codec interface {
	// Name identifies the codec in experiment tables.
	Name() string
	// Compress encodes a line; the returned slice is freshly allocated.
	Compress(line []byte) []byte
	// Size returns len(Compress(line)) without building the encoding.
	Size(line []byte) int
	// Decompress reverses Compress. lineSize is the decoded length.
	Decompress(enc []byte, lineSize int) ([]byte, error)
}

// Differential is the paper's word-delta codec. The zero value is ready
// to use.
type Differential struct{}

// Name returns "differential".
func (Differential) Name() string { return "differential" }

// Delta tag values (2 bits per encoded word).
const (
	tagZero  = 0 // delta == 0: no payload bytes
	tagInt8  = 1 // delta fits in int8: 1 payload byte
	tagInt16 = 2 // delta fits in int16: 2 payload bytes
	tagFull  = 3 // raw 4-byte word (delta too wide)
)

// Compress encodes line (length must be a multiple of 4 and >= 4).
//
// Layout: [tag bits, 2 per delta word, packed LSB-first] [first word raw]
// [payload bytes...].
func (Differential) Compress(line []byte) []byte {
	if len(line) < 4 || len(line)%4 != 0 {
		//lint:allow panicfree line length is fixed by the cache geometry in code, never by runtime input
		panic(fmt.Sprintf("compress: line length %d is not a positive multiple of 4", len(line)))
	}
	words := len(line) / 4
	tagBytes := (2*(words-1) + 7) / 8
	out := make([]byte, tagBytes, tagBytes+len(line))
	out = append(out, line[:4]...)

	prev := binary.LittleEndian.Uint32(line[:4])
	for i := 1; i < words; i++ {
		cur := binary.LittleEndian.Uint32(line[i*4:])
		delta := int32(cur - prev)
		var tag byte
		switch {
		case delta == 0:
			tag = tagZero
		case delta >= -128 && delta <= 127:
			tag = tagInt8
			out = append(out, byte(delta))
		case delta >= -32768 && delta <= 32767:
			tag = tagInt16
			out = append(out, byte(delta), byte(delta>>8))
		default:
			tag = tagFull
			out = append(out, byte(cur), byte(cur>>8), byte(cur>>16), byte(cur>>24))
		}
		setTag(out[:tagBytes], i-1, tag)
		prev = cur
	}
	return out
}

// Size returns len(Compress(line)) without building the encoding.
// MeasureTraffic prices every line crossing the cache boundary and the
// compressed-NUCA replay sizes every line on every dirty update, so the
// sizing pass must not allocate.
func (Differential) Size(line []byte) int {
	if len(line) < 4 || len(line)%4 != 0 {
		//lint:allow panicfree line length is fixed by the cache geometry in code, never by runtime input
		panic(fmt.Sprintf("compress: line length %d is not a positive multiple of 4", len(line)))
	}
	words := len(line) / 4
	size := (2*(words-1)+7)/8 + 4
	prev := binary.LittleEndian.Uint32(line[:4])
	for i := 1; i < words; i++ {
		cur := binary.LittleEndian.Uint32(line[i*4:])
		delta := int32(cur - prev)
		switch {
		case delta == 0:
		case delta >= -128 && delta <= 127:
			size++
		case delta >= -32768 && delta <= 32767:
			size += 2
		default:
			size += 4
		}
		prev = cur
	}
	return size
}

// Decompress reverses Compress.
func (Differential) Decompress(enc []byte, lineSize int) ([]byte, error) {
	if lineSize < 4 || lineSize%4 != 0 {
		return nil, fmt.Errorf("compress: bad line size %d", lineSize)
	}
	words := lineSize / 4
	tagBytes := (2*(words-1) + 7) / 8
	if len(enc) < tagBytes+4 {
		return nil, fmt.Errorf("compress: encoding too short (%d bytes)", len(enc))
	}
	out := make([]byte, lineSize)
	copy(out[:4], enc[tagBytes:tagBytes+4])
	prev := binary.LittleEndian.Uint32(out[:4])
	p := tagBytes + 4
	for i := 1; i < words; i++ {
		var cur uint32
		switch getTag(enc[:tagBytes], i-1) {
		case tagZero:
			cur = prev
		case tagInt8:
			if p+1 > len(enc) {
				return nil, fmt.Errorf("compress: truncated int8 delta at word %d", i)
			}
			cur = prev + uint32(int32(int8(enc[p])))
			p++
		case tagInt16:
			if p+2 > len(enc) {
				return nil, fmt.Errorf("compress: truncated int16 delta at word %d", i)
			}
			cur = prev + uint32(int32(int16(uint16(enc[p])|uint16(enc[p+1])<<8)))
			p += 2
		case tagFull:
			if p+4 > len(enc) {
				return nil, fmt.Errorf("compress: truncated raw word at word %d", i)
			}
			cur = binary.LittleEndian.Uint32(enc[p:])
			p += 4
		}
		binary.LittleEndian.PutUint32(out[i*4:], cur)
		prev = cur
	}
	return out, nil
}

func setTag(tags []byte, idx int, tag byte) {
	tags[idx/4] |= tag << uint((idx%4)*2)
}

func getTag(tags []byte, idx int) byte {
	return tags[idx/4] >> uint((idx%4)*2) & 3
}
