package buscode

import "math/bits"

// Chromatic encoding for the Digital Visual Interface (DATE'03 8B.3,
// Cheng & Pedram: "Chromatic Encoding: a Low Power Encoding Technique for
// Digital Visual Interface").
//
// The scheme rests on two observations about natural video ("tonal
// locality"): (1) differences between horizontally adjacent pixels follow
// a peaked, Gaussian-like distribution, so codes should be assigned to
// pixel values such that nearby values get nearby codes — realized here by
// the Gray map, under which values differing by one toggle exactly one
// line; and (2) the three colour channels of a pixel are strongly
// correlated, so one or two channels can be sent as the (small) difference
// from a reference channel. One redundant bit per channel (3 per 24-bit
// pixel, exactly the paper's overhead) signals whether the channel is
// direct or reciprocal, chosen per pixel to minimize transitions.

// RGB is one 24-bit pixel.
type RGB struct {
	R, G, B uint8
}

// grayByte returns the 8-bit Gray code of v.
func grayByte(v uint8) uint8 { return v ^ (v >> 1) }

// Chromatic is the encoder: 27 physical lines (3×8 data + 3 mode bits).
type Chromatic struct {
	lastPat uint64
	started bool
}

// Name returns "chromatic".
func (c *Chromatic) Name() string { return "chromatic" }

// Lines returns 27.
func (c *Chromatic) Lines() int { return 27 }

// Reset clears the pattern history.
func (c *Chromatic) Reset() { c.lastPat, c.started = 0, false }

// EncodePixel encodes one pixel, choosing per-channel direct vs reciprocal
// representation to minimize transitions against the previous pattern.
func (c *Chromatic) EncodePixel(dst []uint64, px RGB) []uint64 {
	// Candidate representations per channel: direct Gray(v), or
	// reciprocal Gray(v - ref) with the R channel as the reference.
	// R itself is always direct (it is the reference).
	r := uint64(grayByte(px.R))
	gDirect := uint64(grayByte(px.G))
	gRecip := uint64(grayByte(px.G-px.R)) | 1<<24 // mode bit 24
	bDirect := uint64(grayByte(px.B))
	bRecip := uint64(grayByte(px.B-px.R)) | 1<<25 // mode bit 25

	best := uint64(0)
	bestCost := -1
	for _, g := range [2]uint64{gDirect, gRecip} {
		for _, b := range [2]uint64{bDirect, bRecip} {
			pat := r | (g&0xFF)<<8 | (b&0xFF)<<16 | (g &^ 0xFF) | (b &^ 0xFF)
			cost := 0
			if c.started {
				cost = bits.OnesCount64(c.lastPat ^ pat)
			}
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best = pat
			}
		}
	}
	c.lastPat = best
	c.started = true
	return append(dst, best)
}

// Encode satisfies Encoder by treating the low 24 bits of word as an RGB
// pixel (R low byte).
func (c *Chromatic) Encode(dst []uint64, word uint32) []uint64 {
	return c.EncodePixel(dst, RGB{R: uint8(word), G: uint8(word >> 8), B: uint8(word >> 16)})
}

// DecodePixel inverts EncodePixel given a pattern.
//
//lint:allow testonly verification oracle: TestChromaticRoundTrip proves the chromatic code lossless by decoding through it
func DecodePixel(pat uint64) RGB {
	inv := func(g uint8) uint8 {
		// Inverse Gray.
		v := g
		for s := uint(1); s < 8; s <<= 1 {
			v ^= v >> s
		}
		return v
	}
	r := inv(uint8(pat))
	g := inv(uint8(pat >> 8))
	b := inv(uint8(pat >> 16))
	if pat>>24&1 == 1 {
		g += r
	}
	if pat>>25&1 == 1 {
		b += r
	}
	return RGB{R: r, G: g, B: b}
}

// RawPixel is the unencoded 24-bit baseline.
type RawPixel struct{}

// Name returns "raw24".
func (RawPixel) Name() string { return "raw24" }

// Lines returns 24.
func (RawPixel) Lines() int { return 24 }

// Encode emits the pixel bits unchanged.
func (RawPixel) Encode(dst []uint64, word uint32) []uint64 {
	return append(dst, uint64(word)&0xFFFFFF)
}

// Reset is a no-op.
func (RawPixel) Reset() {}

// PixelWord packs an RGB pixel into the uint32 convention used by Encode.
func PixelWord(px RGB) uint32 {
	return uint32(px.R) | uint32(px.G)<<8 | uint32(px.B)<<16
}
