package workloads

import (
	"fmt"
	"sort"

	"lpmem/internal/isa"
)

// MatMul builds a dense 12x12 integer matrix multiply, C = A x B.
func MatMul(seed int64) *Instance {
	const (
		dim   = 12
		aBase = 0x0005_0000
		bBase = 0x0005_4000
		cBase = 0x0005_8000
	)
	r := rng(seed)
	a := words16(r, dim*dim)
	bm := words16(r, dim*dim)
	want := make([]uint32, dim*dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			var acc uint32
			for k := 0; k < dim; k++ {
				acc += a[i*dim+k] * bm[k*dim+j]
			}
			want[i*dim+j] = acc
		}
	}

	b := isa.NewBuilder()
	b.MoviU(7, aBase)
	b.MoviU(8, bBase)
	b.MoviU(9, cBase)
	b.Movi(4, dim)
	b.Movi(1, 0) // i
	b.Label("iloop")
	b.Bge(1, 4, "done")
	b.Movi(2, 0) // j
	b.Label("jloop")
	b.Bge(2, 4, "iend")
	b.Movi(5, 0) // acc
	b.Movi(3, 0) // k
	b.Label("kloop")
	b.Bge(3, 4, "kend")
	b.Mul(10, 1, 4)
	b.Add(10, 10, 3)
	b.Shli(10, 10, 2)
	b.Add(10, 10, 7)
	b.Lw(10, 10, 0) // a[i*dim+k]
	b.Mul(11, 3, 4)
	b.Add(11, 11, 2)
	b.Shli(11, 11, 2)
	b.Add(11, 11, 8)
	b.Lw(11, 11, 0) // b[k*dim+j]
	b.Mul(10, 10, 11)
	b.Add(5, 5, 10)
	b.Addi(3, 3, 1)
	b.Jmp("kloop")
	b.Label("kend")
	b.Mul(12, 1, 4)
	b.Add(12, 12, 2)
	b.Shli(12, 12, 2)
	b.Add(12, 12, 9)
	b.Sw(5, 12, 0)
	b.Addi(2, 2, 1)
	b.Jmp("jloop")
	b.Label("iend")
	b.Addi(1, 1, 1)
	b.Jmp("iloop")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "matmul",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(aBase, a)
			c.Mem.LoadWords(bBase, bm)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(cBase, dim*dim)
			return compareWords("c", want, got)
		},
		MaxSteps: 300_000,
		Arrays: []Array{
			{Name: "a", Base: aBase, Size: dim * dim * 4},
			{Name: "b", Base: bBase, Size: dim * dim * 4},
			{Name: "c", Base: cBase, Size: dim * dim * 4},
		},
	}
}

// Histogram builds a 256-bin byte histogram over a 2 KiB image, the classic
// data-dependent-addressing kernel.
func Histogram(seed int64) *Instance {
	const (
		n        = 2048
		imgBase  = 0x0006_0000
		histBase = 0x0006_4000
	)
	r := rng(seed)
	img := make([]byte, n)
	for i := range img {
		// Peaked distribution, as in natural images.
		img[i] = byte(128 + r.NormFloat64()*40)
	}
	want := make([]uint32, 256)
	for _, px := range img {
		want[px]++
	}

	b := isa.NewBuilder()
	b.MoviU(7, imgBase)
	b.MoviU(8, histBase)
	b.Movi(1, 0) // i
	b.Movi(2, n)
	b.Label("loop")
	b.Bge(1, 2, "done")
	b.Add(9, 7, 1)
	b.Lb(3, 9, 0) // img[i]
	b.Shli(4, 3, 2)
	b.Add(4, 4, 8)
	b.Lw(5, 4, 0)
	b.Addi(5, 5, 1)
	b.Sw(5, 4, 0)
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "histogram",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadBytes(imgBase, img)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(histBase, 256)
			return compareWords("hist", want, got)
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "img", Base: imgBase, Size: n},
			{Name: "hist", Base: histBase, Size: 256 * 4},
		},
	}
}

// InsertionSort builds an in-place insertion sort of 128 signed words.
func InsertionSort(seed int64) *Instance {
	const (
		n       = 128
		arrBase = 0x0007_0000
	)
	r := rng(seed)
	arr := words16(r, n)
	want := append([]uint32(nil), arr...)
	sort.Slice(want, func(i, j int) bool { return int32(want[i]) < int32(want[j]) })

	b := isa.NewBuilder()
	b.MoviU(7, arrBase)
	b.Movi(1, 1) // i
	b.Movi(2, n)
	b.Label("outer")
	b.Bge(1, 2, "done")
	b.Shli(8, 1, 2)
	b.Add(8, 8, 7)
	b.Lw(3, 8, 0)    // key = a[i]
	b.Addi(4, 1, -1) // j = i-1
	b.Label("inner")
	b.Movi(10, 0)
	b.Blt(4, 10, "endinner") // j < 0
	b.Shli(8, 4, 2)
	b.Add(8, 8, 7)
	b.Lw(9, 8, 0)           // a[j]
	b.Bge(3, 9, "endinner") // key >= a[j]
	b.Sw(9, 8, 4)           // a[j+1] = a[j]
	b.Addi(4, 4, -1)
	b.Jmp("inner")
	b.Label("endinner")
	b.Addi(5, 4, 1)
	b.Shli(8, 5, 2)
	b.Add(8, 8, 7)
	b.Sw(3, 8, 0) // a[j+1] = key
	b.Addi(1, 1, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "sort",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(arrBase, arr)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(arrBase, n)
			return compareWords("arr", want, got)
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "arr", Base: arrBase, Size: n * 4},
		},
	}
}

// crcTable returns the standard reflected CRC-32 (IEEE) table.
func crcTable() []uint32 {
	tbl := make([]uint32, 256)
	for i := range tbl {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		tbl[i] = c
	}
	return tbl
}

// CRC32 builds a table-driven CRC-32 over 1 KiB of data.
func CRC32(seed int64) *Instance {
	const (
		n       = 1024
		datBase = 0x0008_0000
		tblBase = 0x0008_4000
		resBase = 0x0008_8000
	)
	r := rng(seed)
	data := make([]byte, n)
	_, _ = r.Read(data) // rand.Rand.Read always returns len(p), nil
	tbl := crcTable()
	crc := uint32(0xFFFFFFFF)
	for _, by := range data {
		crc = (crc >> 8) ^ tbl[(crc^uint32(by))&0xFF]
	}

	b := isa.NewBuilder()
	b.MoviU(7, datBase)
	b.MoviU(8, tblBase)
	b.Movi(1, 0) // i
	b.Movi(2, n)
	b.Movi(3, -1) // crc = 0xFFFFFFFF
	b.Label("loop")
	b.Bge(1, 2, "done")
	b.Add(4, 7, 1)
	b.Lb(5, 4, 0)
	b.Xor(6, 3, 5)
	b.Andi(6, 6, 255)
	b.Shli(6, 6, 2)
	b.Add(6, 6, 8)
	b.Lw(6, 6, 0)
	b.Shri(3, 3, 8)
	b.Xor(3, 3, 6)
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.MoviU(4, resBase)
	b.Sw(3, 4, 0)
	b.Halt()

	return &Instance{
		Name: "crc32",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadBytes(datBase, data)
			c.Mem.LoadWords(tblBase, tbl)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.Load(resBase, 4)
			if got != crc {
				return fmt.Errorf("crc = %#x, want %#x", got, crc)
			}
			return nil
		},
		MaxSteps: 100_000,
		Arrays: []Array{
			{Name: "data", Base: datBase, Size: n},
			{Name: "table", Base: tblBase, Size: 256 * 4},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}

// StringSearch builds a naive substring counter over 2 KiB of text with an
// 8-byte pattern planted at known positions.
func StringSearch(seed int64) *Instance {
	const (
		n       = 2048
		m       = 8
		txtBase = 0x0009_0000
		patBase = 0x0009_4000
		resBase = 0x0009_8000
	)
	r := rng(seed)
	pattern := []byte("NEEDLE42")
	text := make([]byte, n)
	for i := range text {
		text[i] = byte('a' + r.Intn(26))
	}
	// Plant some occurrences.
	for _, pos := range []int{17, 512, 1033, n - m} {
		copy(text[pos:], pattern)
	}
	// Golden count.
	wantCount := uint32(0)
	for i := 0; i+m <= n; i++ {
		match := true
		for j := 0; j < m; j++ {
			if text[i+j] != pattern[j] {
				match = false
				break
			}
		}
		if match {
			wantCount++
		}
	}

	b := isa.NewBuilder()
	b.MoviU(7, txtBase)
	b.MoviU(8, patBase)
	b.Movi(1, 0)     // i
	b.Movi(2, n-m+1) // limit
	b.Movi(4, m)     // pattern length
	b.Movi(5, 0)     // count
	b.Label("outer")
	b.Bge(1, 2, "done")
	b.Movi(3, 0) // j
	b.Label("inner")
	b.Bge(3, 4, "match")
	b.Add(9, 7, 1)
	b.Add(9, 9, 3)
	b.Lb(10, 9, 0)
	b.Add(11, 8, 3)
	b.Lb(12, 11, 0)
	b.Bne(10, 12, "nomatch")
	b.Addi(3, 3, 1)
	b.Jmp("inner")
	b.Label("match")
	b.Addi(5, 5, 1)
	b.Label("nomatch")
	b.Addi(1, 1, 1)
	b.Jmp("outer")
	b.Label("done")
	b.MoviU(9, resBase)
	b.Sw(5, 9, 0)
	b.Halt()

	return &Instance{
		Name: "strsearch",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadBytes(txtBase, text)
			c.Mem.LoadBytes(patBase, pattern)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.Load(resBase, 4)
			if got != wantCount {
				return fmt.Errorf("count = %d, want %d", got, wantCount)
			}
			return nil
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "text", Base: txtBase, Size: n},
			{Name: "pattern", Base: patBase, Size: m},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}

// FibCall builds a deliberately call-heavy kernel: naive recursive
// Fibonacci of 17, whose push/pop traffic feeds the stack-memory
// experiment (E9).
func FibCall(seed int64) *Instance {
	const (
		arg     = 17
		resBase = 0x000A_0000
	)
	fib := func(n int) uint32 {
		a, bb := uint32(0), uint32(1)
		for i := 0; i < n; i++ {
			a, bb = bb, a+bb
		}
		return a
	}
	want := fib(arg)

	b := isa.NewBuilder()
	b.Movi(1, arg)
	b.Jal("fib")
	b.MoviU(4, resBase)
	b.Sw(2, 4, 0)
	b.Halt()
	b.Label("fib")
	b.Movi(3, 2)
	b.Blt(1, 3, "base")
	b.Push(isa.LR)
	b.Push(1)
	b.Addi(1, 1, -1)
	b.Jal("fib") // r2 = fib(n-1)
	b.Pop(1)     // restore n
	b.Push(2)    // save fib(n-1)
	b.Addi(1, 1, -2)
	b.Jal("fib") // r2 = fib(n-2)
	b.Pop(3)     // fib(n-1)
	b.Add(2, 2, 3)
	b.Pop(isa.LR)
	b.Ret()
	b.Label("base")
	b.Mov(2, 1)
	b.Ret()

	_ = seed // the kernel is fully deterministic
	return &Instance{
		Name: "fibcall",
		Prog: b.MustAssemble(),
		Check: func(c *isa.CPU) error {
			got := c.Mem.Load(resBase, 4)
			if got != want {
				return fmt.Errorf("fib(%d) = %d, want %d", arg, got, want)
			}
			return nil
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "res", Base: resBase, Size: 4},
			{Name: "stack", Base: isa.DefaultStackTop - isa.DefaultStackSize, Size: isa.DefaultStackSize},
		},
	}
}
