package workloads

import (
	"fmt"
	"math"

	"lpmem/internal/isa"
)

// FIR builds a 16-tap finite-impulse-response filter over 256 samples:
// y[n] = sum_k x[n+k]*h[k]. It is the canonical streaming-DSP kernel with
// three interleaved arrays, the pattern address clustering thrives on.
func FIR(seed int64) *Instance {
	const (
		n     = 256
		taps  = 16
		xBase = 0x0001_0000
		hBase = 0x0001_4000
		yBase = 0x0001_8000
	)
	r := rng(seed)
	x := words16(r, n)
	h := make([]uint32, taps)
	for i := range h {
		h[i] = uint32(int32(r.Intn(256) - 128))
	}
	// Golden model with identical wrap-around arithmetic.
	want := make([]uint32, n-taps)
	for i := range want {
		var acc uint32
		for k := 0; k < taps; k++ {
			acc += x[i+k] * h[k]
		}
		want[i] = acc
	}

	b := isa.NewBuilder()
	b.MoviU(7, xBase)
	b.MoviU(8, hBase)
	b.MoviU(9, yBase)
	b.Movi(1, 0)      // n
	b.Movi(2, n-taps) // limit
	b.Movi(5, taps)   // taps
	b.Label("outer")
	b.Bge(1, 2, "done")
	b.Movi(3, 0) // acc
	b.Movi(4, 0) // k
	b.Label("inner")
	b.Bge(4, 5, "endinner")
	b.Add(6, 1, 4)
	b.Shli(6, 6, 2)
	b.Add(6, 6, 7)
	b.Lw(10, 6, 0) // x[n+k]
	b.Shli(6, 4, 2)
	b.Add(6, 6, 8)
	b.Lw(11, 6, 0) // h[k]
	b.Mul(10, 10, 11)
	b.Add(3, 3, 10)
	b.Addi(4, 4, 1)
	b.Jmp("inner")
	b.Label("endinner")
	b.Shli(6, 1, 2)
	b.Add(6, 6, 9)
	b.Sw(3, 6, 0)
	b.Addi(1, 1, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "fir",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(xBase, x)
			c.Mem.LoadWords(hBase, h)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(yBase, len(want))
			return compareWords("y", want, got)
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "x", Base: xBase, Size: n * 4},
			{Name: "h", Base: hBase, Size: taps * 4},
			{Name: "y", Base: yBase, Size: (n - taps) * 4},
		},
	}
}

// dctCoeffs returns the 8x8 integer DCT-II coefficient matrix scaled by 64.
func dctCoeffs() []uint32 {
	c := make([]uint32, 64)
	for u := 0; u < 8; u++ {
		for k := 0; k < 8; k++ {
			v := math.Round(64 * math.Cos(float64(2*k+1)*float64(u)*math.Pi/16))
			c[u*8+k] = uint32(int32(v))
		}
	}
	return c
}

// DCT builds a 1-D 8-point integer DCT over 24 sample blocks, the inner
// kernel of JPEG/MPEG-class codecs: out[b][u] = (sum_k C[u][k]*x[b][k])>>8.
func DCT(seed int64) *Instance {
	const (
		blocks = 24
		xBase  = 0x0002_0000
		cBase  = 0x0002_4000
		oBase  = 0x0002_8000
	)
	r := rng(seed)
	x := make([]uint32, blocks*8)
	for i := range x {
		x[i] = uint32(int32(r.Intn(512) - 256))
	}
	coef := dctCoeffs()
	want := make([]uint32, blocks*8)
	for b := 0; b < blocks; b++ {
		for u := 0; u < 8; u++ {
			var acc uint32
			for k := 0; k < 8; k++ {
				acc += coef[u*8+k] * x[b*8+k]
			}
			want[b*8+u] = uint32(int32(acc) >> 8)
		}
	}

	bld := isa.NewBuilder()
	bld.MoviU(7, xBase)
	bld.MoviU(8, cBase)
	bld.MoviU(9, oBase)
	bld.Movi(1, 0)      // b (block)
	bld.Movi(2, blocks) // block limit
	bld.Movi(12, 8)     // constant 8
	bld.Label("bloop")
	bld.Bge(1, 2, "done")
	bld.Movi(3, 0) // u
	bld.Label("uloop")
	bld.Bge(3, 12, "bend")
	bld.Movi(5, 0) // acc
	bld.Movi(4, 0) // k
	bld.Label("kloop")
	bld.Bge(4, 12, "kend")
	// C[u*8+k]
	bld.Shli(10, 3, 3)
	bld.Add(10, 10, 4)
	bld.Shli(10, 10, 2)
	bld.Add(10, 10, 8)
	bld.Lw(10, 10, 0)
	// x[b*8+k]
	bld.Shli(11, 1, 3)
	bld.Add(11, 11, 4)
	bld.Shli(11, 11, 2)
	bld.Add(11, 11, 7)
	bld.Lw(11, 11, 0)
	bld.Mul(10, 10, 11)
	bld.Add(5, 5, 10)
	bld.Addi(4, 4, 1)
	bld.Jmp("kloop")
	bld.Label("kend")
	bld.Movi(10, 8)
	bld.Sra(5, 5, 10) // acc >> 8, arithmetic
	bld.Shli(10, 1, 3)
	bld.Add(10, 10, 3)
	bld.Shli(10, 10, 2)
	bld.Add(10, 10, 9)
	bld.Sw(5, 10, 0)
	bld.Addi(3, 3, 1)
	bld.Jmp("uloop")
	bld.Label("bend")
	bld.Addi(1, 1, 1)
	bld.Jmp("bloop")
	bld.Label("done")
	bld.Halt()

	return &Instance{
		Name: "dct",
		Prog: bld.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(xBase, x)
			c.Mem.LoadWords(cBase, coef)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(oBase, len(want))
			return compareWords("out", want, got)
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "x", Base: xBase, Size: blocks * 8 * 4},
			{Name: "coef", Base: cBase, Size: 64 * 4},
			{Name: "out", Base: oBase, Size: blocks * 8 * 4},
		},
	}
}

// AutoCorr builds an autocorrelation kernel, the front end of LPC speech
// coders: R[lag] = sum_i x[i]*x[i+lag] for lag in [0,16).
func AutoCorr(seed int64) *Instance {
	const (
		n     = 256
		lags  = 16
		xBase = 0x0003_0000
		rBase = 0x0003_4000
	)
	r := rng(seed)
	x := words16(r, n)
	want := make([]uint32, lags)
	for lag := 0; lag < lags; lag++ {
		var acc uint32
		for i := 0; i+lag < n; i++ {
			acc += x[i] * x[i+lag]
		}
		want[lag] = acc
	}

	b := isa.NewBuilder()
	b.MoviU(7, xBase)
	b.MoviU(8, rBase)
	b.Movi(1, 0)    // lag
	b.Movi(2, lags) // lag limit
	b.Movi(12, n)   // n
	b.Label("lagloop")
	b.Bge(1, 2, "done")
	b.Movi(5, 0)    // acc
	b.Movi(3, 0)    // i
	b.Sub(4, 12, 1) // limit = n - lag
	b.Label("iloop")
	b.Bge(3, 4, "iend")
	b.Shli(10, 3, 2)
	b.Add(10, 10, 7)
	b.Lw(10, 10, 0) // x[i]
	b.Add(11, 3, 1)
	b.Shli(11, 11, 2)
	b.Add(11, 11, 7)
	b.Lw(11, 11, 0) // x[i+lag]
	b.Mul(10, 10, 11)
	b.Add(5, 5, 10)
	b.Addi(3, 3, 1)
	b.Jmp("iloop")
	b.Label("iend")
	b.Shli(10, 1, 2)
	b.Add(10, 10, 8)
	b.Sw(5, 10, 0)
	b.Addi(1, 1, 1)
	b.Jmp("lagloop")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "autocorr",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(xBase, x)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(rBase, lags)
			return compareWords("r", want, got)
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "x", Base: xBase, Size: n * 4},
			{Name: "r", Base: rBase, Size: lags * 4},
		},
	}
}

// ADPCM builds a simplified adaptive-differential PCM encoder: per sample,
// quantize the prediction error with an adaptive step, the core loop of the
// MediaBench adpcm benchmark.
func ADPCM(seed int64) *Instance {
	const (
		n     = 512
		xBase = 0x0004_0000
		oBase = 0x0004_4000
	)
	r := rng(seed)
	x := make([]int32, n)
	// Smooth waveform: random walk, as speech-like input.
	cur := int32(0)
	for i := range x {
		cur += int32(r.Intn(200) - 100)
		x[i] = cur
	}
	// Golden model.
	want := make([]byte, n)
	pred, step := int32(0), int32(16)
	for i, xv := range x {
		delta := xv - pred
		code := delta / step
		if code > 7 {
			code = 7
		}
		if code < -8 {
			code = -8
		}
		pred += code * step
		abs := code
		if abs < 0 {
			abs = -abs
		}
		if abs >= 4 {
			step <<= 1
			if step > 2048 {
				step = 2048
			}
		} else if abs < 2 {
			step >>= 1
			if step < 1 {
				step = 1
			}
		}
		want[i] = byte(code)
	}

	b := isa.NewBuilder()
	b.MoviU(9, xBase)
	b.MoviU(10, oBase)
	b.Movi(1, 0)  // i
	b.Movi(2, n)  // limit
	b.Movi(3, 0)  // pred
	b.Movi(4, 16) // step
	b.Label("loop")
	b.Bge(1, 2, "done")
	b.Shli(8, 1, 2)
	b.Add(8, 8, 9)
	b.Lw(5, 8, 0)  // x[i]
	b.Sub(6, 5, 3) // delta
	b.Div(7, 6, 4) // code
	b.Movi(11, 7)
	b.Bge(11, 7, "nohi")
	b.Mov(7, 11)
	b.Label("nohi")
	b.Movi(12, -8)
	b.Bge(7, 12, "nolo")
	b.Mov(7, 12)
	b.Label("nolo")
	b.Mul(8, 7, 4)
	b.Add(3, 3, 8) // pred += code*step
	// abs(code)
	b.Mov(8, 7)
	b.Movi(11, 0)
	b.Bge(8, 11, "absok")
	b.Sub(8, 11, 8)
	b.Label("absok")
	b.Movi(11, 4)
	b.Blt(8, 11, "small")
	b.Shli(4, 4, 1)
	b.Movi(11, 2048)
	b.Bge(11, 4, "adapted")
	b.Mov(4, 11)
	b.Jmp("adapted")
	b.Label("small")
	b.Movi(11, 2)
	b.Bge(8, 11, "adapted")
	b.Shri(4, 4, 1)
	b.Movi(11, 1)
	b.Bge(4, 11, "adapted")
	b.Mov(4, 11)
	b.Label("adapted")
	b.Add(8, 10, 1)
	b.Sb(7, 8, 0)
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "adpcm",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			for i, v := range x {
				c.Mem.Store(xBase+uint32(i)*4, 4, uint32(v))
			}
		},
		Check: func(c *isa.CPU) error {
			for i, w := range want {
				got := byte(c.Mem.Load(oBase+uint32(i), 1))
				if got != w {
					return fmt.Errorf("out[%d] = %#x, want %#x", i, got, w)
				}
			}
			return nil
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "x", Base: xBase, Size: n * 4},
			{Name: "out", Base: oBase, Size: n},
		},
	}
}

func compareWords(name string, want, got []uint32) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: length mismatch %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s[%d] = %#x, want %#x", name, i, got[i], want[i])
		}
	}
	return nil
}
