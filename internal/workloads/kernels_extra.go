package workloads

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"lpmem/internal/isa"
)

// QSort builds a recursive quicksort (Lomuto partition) over 256 signed
// words. Unlike the flat loop kernels it mixes genuine call-stack traffic
// (return addresses, spilled locals) with data-dependent array accesses,
// feeding the stack-memory experiment with realistic call density.
func QSort(seed int64) *Instance {
	const (
		n       = 256
		arrBase = 0x0030_0000
	)
	r := rng(seed)
	arr := words16(r, n)
	want := append([]uint32(nil), arr...)
	sort.Slice(want, func(i, j int) bool { return int32(want[i]) < int32(want[j]) })

	b := isa.NewBuilder()
	b.MoviU(7, arrBase)
	b.Movi(1, 0)
	b.Movi(2, n-1)
	b.Jal("qsort")
	b.Halt()

	// qsort(lo=r1, hi=r2); clobbers r3..r12.
	b.Label("qsort")
	b.Blt(1, 2, "qs_go")
	b.Ret()
	b.Label("qs_go")
	b.Push(isa.LR)
	// Lomuto partition with pivot = a[hi].
	b.Shli(3, 2, 2)
	b.Add(3, 3, 7)
	b.Lw(4, 3, 0)    // pivot
	b.Addi(5, 1, -1) // i = lo-1
	b.Mov(6, 1)      // j = lo
	b.Label("qs_loop")
	b.Bge(6, 2, "qs_done")
	b.Shli(3, 6, 2)
	b.Add(3, 3, 7)
	b.Lw(8, 3, 0) // a[j]
	b.Bge(8, 4, "qs_skip")
	b.Addi(5, 5, 1)
	b.Shli(9, 5, 2)
	b.Add(9, 9, 7)
	b.Lw(10, 9, 0) // a[i]
	b.Sw(8, 9, 0)  // a[i] = a[j]
	b.Sw(10, 3, 0) // a[j] = old a[i]
	b.Label("qs_skip")
	b.Addi(6, 6, 1)
	b.Jmp("qs_loop")
	b.Label("qs_done")
	b.Addi(5, 5, 1) // p = i+1
	b.Shli(9, 5, 2)
	b.Add(9, 9, 7)
	b.Lw(10, 9, 0) // a[p]
	b.Shli(3, 2, 2)
	b.Add(3, 3, 7)
	b.Lw(8, 3, 0)  // a[hi]
	b.Sw(8, 9, 0)  // a[p] = a[hi]
	b.Sw(10, 3, 0) // a[hi] = old a[p]
	// Recurse left: qsort(lo, p-1); save hi and p across the call.
	b.Push(2)
	b.Push(5)
	b.Addi(2, 5, -1)
	b.Jal("qsort")
	b.Pop(5) // p
	b.Pop(2) // hi
	// Recurse right: qsort(p+1, hi).
	b.Addi(1, 5, 1)
	b.Jal("qsort")
	b.Pop(isa.LR)
	b.Ret()

	return &Instance{
		Name: "qsort",
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
			{Name: "stack", Base: isa.DefaultStackTop - isa.DefaultStackSize, Size: isa.DefaultStackSize},
		},
	}
}

// huffNode is a tree node for the Go-side canonical Huffman construction.
type huffNode struct {
	freq        uint64
	sym         int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// buildHuffman returns per-symbol code values and lengths (<=16 bits) for
// the given frequencies.
func buildHuffman(freq []uint64) (codes, lens []uint32) {
	h := &huffHeap{}
	for s, f := range freq {
		if f > 0 {
			heap.Push(h, &huffNode{freq: f, sym: s})
		}
	}
	if h.Len() == 1 {
		n := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{freq: n.freq, sym: -1, left: n, right: &huffNode{sym: n.sym}})
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		bb := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{freq: a.freq + bb.freq, sym: -1, left: a, right: bb})
	}
	codes = make([]uint32, len(freq))
	lens = make([]uint32, len(freq))
	var walk func(n *huffNode, code uint32, depth uint32)
	walk = func(n *huffNode, code uint32, depth uint32) {
		if n == nil {
			return
		}
		if n.left == nil && n.right == nil {
			if depth == 0 {
				depth = 1
			}
			codes[n.sym] = code
			lens[n.sym] = depth
			return
		}
		walk(n.left, code<<1, depth+1)
		walk(n.right, code<<1|1, depth+1)
	}
	walk(heap.Pop(h).(*huffNode), 0, 0)
	return codes, lens
}

// Huffman builds a table-driven Huffman bit-packing encoder over 1 KiB of
// skewed byte data, the entropy-coding tail of every media codec.
func Huffman(seed int64) *Instance {
	const (
		n        = 1024
		datBase  = 0x0031_0000
		codeBase = 0x0031_4000
		lenBase  = 0x0031_8000
		outBase  = 0x0031_C000
		resBase  = 0x0031_F000
	)
	r := rng(seed)
	// Skewed symbol distribution over a 64-symbol alphabet.
	data := make([]byte, n)
	for i := range data {
		f := r.Float64()
		data[i] = byte(f * f * 64)
	}
	freq := make([]uint64, 256)
	for _, by := range data {
		freq[by]++
	}
	codes, lens := buildHuffman(freq)
	// Golden bit packer, mirroring the kernel's arithmetic exactly.
	var out []byte
	var bitbuf, bits uint32
	for _, by := range data {
		bitbuf = bitbuf<<lens[by] | codes[by]
		bits += lens[by]
		for bits >= 8 {
			bits -= 8
			out = append(out, byte(bitbuf>>bits))
		}
	}
	if bits > 0 {
		out = append(out, byte(bitbuf<<(8-bits)))
	}

	b := isa.NewBuilder()
	b.MoviU(7, datBase)
	b.MoviU(8, codeBase)
	b.MoviU(9, lenBase)
	b.MoviU(10, outBase)
	b.Movi(1, 0) // i
	b.Movi(2, n)
	b.Movi(3, 0) // bitbuf
	b.Movi(4, 0) // bits
	b.Movi(5, 0) // out length
	b.Label("loop")
	b.Bge(1, 2, "flush")
	b.Add(11, 7, 1)
	b.Lb(12, 11, 0) // symbol
	b.Shli(11, 12, 2)
	b.Add(11, 11, 8)
	b.Lw(6, 11, 0) // code
	b.Shli(11, 12, 2)
	b.Add(11, 11, 9)
	b.Lw(12, 11, 0) // len
	b.Shl(3, 3, 12)
	b.Or(3, 3, 6)
	b.Add(4, 4, 12)
	b.Label("emit")
	b.Movi(11, 8)
	b.Blt(4, 11, "next")
	b.Addi(4, 4, -8)
	b.Shr(11, 3, 4)
	b.Andi(11, 11, 255)
	b.Add(12, 10, 5)
	b.Sb(11, 12, 0)
	b.Addi(5, 5, 1)
	b.Jmp("emit")
	b.Label("next")
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("flush")
	b.Movi(11, 0)
	b.Beq(4, 11, "done")
	b.Movi(11, 8)
	b.Sub(11, 11, 4)
	b.Shl(12, 3, 11)
	b.Andi(12, 12, 255)
	b.Add(11, 10, 5)
	b.Sb(12, 11, 0)
	b.Addi(5, 5, 1)
	b.Label("done")
	b.MoviU(11, resBase)
	b.Sw(5, 11, 0)
	b.Halt()

	return &Instance{
		Name: "huffman",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadBytes(datBase, data)
			c.Mem.LoadWords(codeBase, codes)
			c.Mem.LoadWords(lenBase, lens)
		},
		Check: func(c *isa.CPU) error {
			if got := c.Mem.Load(resBase, 4); got != uint32(len(out)) {
				return fmt.Errorf("out length = %d, want %d", got, len(out))
			}
			for i, w := range out {
				if got := byte(c.Mem.Load(outBase+uint32(i), 1)); got != w {
					return fmt.Errorf("out[%d] = %#x, want %#x", i, got, w)
				}
			}
			return nil
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "data", Base: datBase, Size: n},
			{Name: "codes", Base: codeBase, Size: 256 * 4},
			{Name: "lens", Base: lenBase, Size: 256 * 4},
			{Name: "out", Base: outBase, Size: n * 2},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}

// Dijkstra builds a single-source shortest-path solve (O(V²), adjacency
// matrix) over a 32-vertex random graph, the MiBench network kernel.
func Dijkstra(seed int64) *Instance {
	const (
		v        = 32
		inf      = 1 << 20
		adjBase  = 0x0032_0000
		distBase = 0x0032_4000
		visBase  = 0x0032_8000
	)
	r := rng(seed)
	adj := make([]uint32, v*v)
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			switch {
			case i == j:
				adj[i*v+j] = 0
			case r.Float64() < 0.25:
				adj[i*v+j] = uint32(1 + r.Intn(100))
			default:
				adj[i*v+j] = inf
			}
		}
	}
	// Golden Dijkstra.
	dist := make([]uint32, v)
	vis := make([]bool, v)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	for iter := 0; iter < v; iter++ {
		u, best := -1, uint32(inf+1)
		for i := 0; i < v; i++ {
			if !vis[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		vis[u] = true
		for j := 0; j < v; j++ {
			if w := adj[u*v+j]; w < inf && dist[u]+w < dist[j] {
				dist[j] = dist[u] + w
			}
		}
	}

	b := isa.NewBuilder()
	b.MoviU(7, adjBase)
	b.MoviU(8, distBase)
	b.MoviU(9, visBase)
	// init: dist[i]=inf, vis[i]=0; dist[0]=0
	b.Movi(1, 0)
	b.Movi(2, v)
	b.Movi(3, inf)
	b.Label("init")
	b.Bge(1, 2, "initdone")
	b.Shli(4, 1, 2)
	b.Add(5, 4, 8)
	b.Sw(3, 5, 0)
	b.Add(5, 4, 9)
	b.Movi(6, 0)
	b.Sw(6, 5, 0)
	b.Addi(1, 1, 1)
	b.Jmp("init")
	b.Label("initdone")
	b.Movi(6, 0)
	b.Sw(6, 8, 0) // dist[0] = 0
	// main loop: v iterations
	b.Movi(12, 0) // iter
	b.Label("outer")
	b.Bge(12, 2, "done")
	// find min unvisited: u in r10, best in r11
	b.Movi(10, -1)
	b.Movi(11, inf+1)
	b.Movi(1, 0)
	b.Label("scan")
	b.Bge(1, 2, "scandone")
	b.Shli(4, 1, 2)
	b.Add(5, 4, 9)
	b.Lw(6, 5, 0) // vis[i]
	b.Movi(3, 0)
	b.Bne(6, 3, "scannext")
	b.Add(5, 4, 8)
	b.Lw(6, 5, 0) // dist[i]
	b.Bge(6, 11, "scannext")
	b.Mov(10, 1)
	b.Mov(11, 6)
	b.Label("scannext")
	b.Addi(1, 1, 1)
	b.Jmp("scan")
	b.Label("scandone")
	b.Movi(3, -1)
	b.Beq(10, 3, "done") // no reachable unvisited vertex
	// vis[u] = 1
	b.Shli(4, 10, 2)
	b.Add(5, 4, 9)
	b.Movi(3, 1)
	b.Sw(3, 5, 0)
	// relax all j
	b.Movi(1, 0) // j
	b.Label("relax")
	b.Bge(1, 2, "relaxdone")
	b.Movi(3, v)
	b.Mul(5, 10, 3)
	b.Add(5, 5, 1)
	b.Shli(5, 5, 2)
	b.Add(5, 5, 7)
	b.Lw(6, 5, 0) // w = adj[u][j]
	b.Movi(3, inf)
	b.Bge(6, 3, "relaxnext")
	b.Add(6, 6, 11) // dist[u] + w (dist[u] == best == r11)
	b.Shli(4, 1, 2)
	b.Add(5, 4, 8)
	b.Lw(3, 5, 0) // dist[j]
	b.Bge(6, 3, "relaxnext")
	b.Sw(6, 5, 0)
	b.Label("relaxnext")
	b.Addi(1, 1, 1)
	b.Jmp("relax")
	b.Label("relaxdone")
	b.Addi(12, 12, 1)
	b.Jmp("outer")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "dijkstra",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(adjBase, adj)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.ReadWords(distBase, v)
			return compareWords("dist", dist, got)
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "adj", Base: adjBase, Size: v * v * 4},
			{Name: "dist", Base: distBase, Size: v * 4},
			{Name: "vis", Base: visBase, Size: v * 4},
		},
	}
}

// FFT builds an in-place iterative radix-2 decimation-in-time FFT over 32
// complex fixed-point samples (Q8 twiddles), the core of OFDM and audio
// front ends. The golden model mirrors the identical integer arithmetic.
func FFT(seed int64) *Instance {
	const (
		n       = 32
		stages  = 5
		reBase  = 0x0033_0000
		imBase  = 0x0033_1000
		wreBase = 0x0033_2000
		wimBase = 0x0033_3000
	)
	r := rng(seed)
	re := make([]uint32, n)
	im := make([]uint32, n)
	for i := range re {
		re[i] = uint32(int32(r.Intn(2048) - 1024))
		im[i] = uint32(int32(r.Intn(2048) - 1024))
	}
	wre := make([]uint32, n/2)
	wim := make([]uint32, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / n
		wre[k] = uint32(int32(math.Round(256 * math.Cos(ang))))
		wim[k] = uint32(int32(math.Round(256 * math.Sin(ang))))
	}
	// Golden model: identical loop nest and integer ops.
	gre := append([]uint32(nil), re...)
	gim := append([]uint32(nil), im...)
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for base := 0; base < n; base += size {
			for k := 0; k < half; k++ {
				wi := k * step
				a := base + k
				bb := base + k + half
				tre := uint32(int32(wre[wi]*gre[bb]-wim[wi]*gim[bb]) >> 8)
				tim := uint32(int32(wre[wi]*gim[bb]+wim[wi]*gre[bb]) >> 8)
				gre[bb] = gre[a] - tre
				gim[bb] = gim[a] - tim
				gre[a] += tre
				gim[a] += tim
			}
		}
	}

	b := isa.NewBuilder()
	b.MoviU(7, reBase)
	b.MoviU(8, imBase)
	b.Movi(1, 2) // size
	b.Label("sizeloop")
	b.Movi(2, n)
	b.Blt(2, 1, "done") // size > n -> done
	b.Shri(2, 1, 1)     // half = size/2
	b.Movi(3, 0)        // base
	b.Label("baseloop")
	b.Movi(4, n)
	b.Bge(3, 4, "baseend")
	b.Movi(4, 0) // k
	b.Label("kloop")
	b.Bge(4, 2, "kend")
	// wi = k * (n/size): n/size = n >> log2(size); compute as k*n/size
	b.Movi(5, n)
	b.Mul(5, 5, 4)
	b.Div(5, 5, 1) // wi = k*n/size
	// load twiddles into r9 (wre), r10 (wim)
	b.Shli(6, 5, 2)
	b.MoviU(9, wreBase)
	b.Add(9, 9, 6)
	b.Lw(9, 9, 0)
	b.MoviU(10, wimBase)
	b.Add(10, 10, 6)
	b.Lw(10, 10, 0)
	// indices: a = base+k (r5), b = a+half (r6)
	b.Add(5, 3, 4)
	b.Add(6, 5, 2)
	// load b's re/im into r11, r12
	b.Shli(11, 6, 2)
	b.Add(11, 11, 7)
	b.Lw(11, 11, 0) // re[b]
	b.Shli(12, 6, 2)
	b.Add(12, 12, 8)
	b.Lw(12, 12, 0) // im[b]
	// tre = (wre*re[b] - wim*im[b]) >> 8  -> r11'
	// tim = (wre*im[b] + wim*re[b]) >> 8  -> r12'
	// Need temporaries: compute into stack-free regs by reusing r9/r10
	// after use. tre: t1 = wre*re[b]; t2 = wim*im[b]; tre = (t1-t2)>>8.
	b.Push(11)       // save re[b]
	b.Mul(11, 9, 11) // wre*re[b]
	b.Mul(9, 10, 12) // wim*im[b] (wre no longer needed in r9)
	b.Sub(11, 11, 9) // diff
	b.Movi(9, 8)
	b.Sra(11, 11, 9) // tre
	// tim: wre was clobbered... need wre again. Recompute from memory.
	b.Push(11) // save tre
	b.Movi(9, n)
	b.Mul(9, 9, 4)
	b.Div(9, 9, 1)
	b.Shli(9, 9, 2)
	b.MoviU(11, wreBase)
	b.Add(11, 11, 9)
	b.Lw(11, 11, 0)   // wre again
	b.Mul(12, 11, 12) // wre*im[b]
	b.Pop(11)         // tre
	b.Pop(9)          // re[b]
	b.Push(11)        // save tre again
	b.Movi(11, n)
	b.Mul(11, 11, 4)
	b.Div(11, 11, 1)
	b.Shli(11, 11, 2)
	b.MoviU(10, wimBase)
	b.Add(10, 10, 11)
	b.Lw(10, 10, 0) // wim again
	b.Mul(9, 10, 9) // wim*re[b]
	b.Add(12, 12, 9)
	b.Movi(9, 8)
	b.Sra(12, 12, 9) // tim
	b.Pop(11)        // tre
	// re[b] = re[a] - tre; re[a] += tre
	b.Shli(9, 5, 2)
	b.Add(9, 9, 7)
	b.Lw(10, 9, 0)   // re[a]
	b.Sub(9, 10, 11) // re[a]-tre -> r9 value
	b.Push(9)
	b.Add(10, 10, 11) // re[a]+tre
	b.Shli(9, 5, 2)
	b.Add(9, 9, 7)
	b.Sw(10, 9, 0) // re[a] updated
	b.Pop(10)
	b.Shli(9, 6, 2)
	b.Add(9, 9, 7)
	b.Sw(10, 9, 0) // re[b] updated
	// im[b] = im[a] - tim; im[a] += tim
	b.Shli(9, 5, 2)
	b.Add(9, 9, 8)
	b.Lw(10, 9, 0) // im[a]
	b.Sub(11, 10, 12)
	b.Add(10, 10, 12)
	b.Sw(10, 9, 0) // im[a] updated
	b.Shli(9, 6, 2)
	b.Add(9, 9, 8)
	b.Sw(11, 9, 0) // im[b] updated
	b.Addi(4, 4, 1)
	b.Jmp("kloop")
	b.Label("kend")
	b.Add(3, 3, 1) // base += size (size lives in r1)
	b.Jmp("baseloop")
	b.Label("baseend")
	b.Shli(1, 1, 1) // size *= 2
	b.Jmp("sizeloop")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "fft",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(reBase, re)
			c.Mem.LoadWords(imBase, im)
			c.Mem.LoadWords(wreBase, wre)
			c.Mem.LoadWords(wimBase, wim)
		},
		Check: func(c *isa.CPU) error {
			if err := compareWords("re", gre, c.Mem.ReadWords(reBase, n)); err != nil {
				return err
			}
			return compareWords("im", gim, c.Mem.ReadWords(imBase, n))
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "re", Base: reBase, Size: n * 4},
			{Name: "im", Base: imBase, Size: n * 4},
			{Name: "wre", Base: wreBase, Size: n / 2 * 4},
			{Name: "wim", Base: wimBase, Size: n / 2 * 4},
			{Name: "stack", Base: isa.DefaultStackTop - 256, Size: 256 + 16},
		},
	}
}

// BitCount builds the classic parallel popcount over 2048 words (the
// MiBench automotive kernel): pure ALU work on a sequential stream.
func BitCount(seed int64) *Instance {
	const (
		n       = 2048
		datBase = 0x0034_0000
		resBase = 0x0034_4000
	)
	r := rng(seed)
	data := make([]uint32, n)
	for i := range data {
		data[i] = r.Uint32()
	}
	var want uint32
	for _, w := range data {
		v := w
		v = v - (v>>1)&0x55555555
		v = v&0x33333333 + (v>>2)&0x33333333
		v = (v + v>>4) & 0x0F0F0F0F
		want += v * 0x01010101 >> 24
	}

	b := isa.NewBuilder()
	b.MoviU(7, datBase)
	b.Movi(1, 0)
	b.Movi(2, n)
	b.Movi(5, 0) // total
	b.MoviU(8, 0x55555555)
	b.MoviU(9, 0x33333333)
	b.MoviU(10, 0x0F0F0F0F)
	b.MoviU(11, 0x01010101)
	b.Label("loop")
	b.Bge(1, 2, "done")
	b.Shli(3, 1, 2)
	b.Add(3, 3, 7)
	b.Lw(3, 3, 0) // v
	b.Shri(4, 3, 1)
	b.And(4, 4, 8)
	b.Sub(3, 3, 4) // v - (v>>1)&5555
	b.Shri(4, 3, 2)
	b.And(4, 4, 9)
	b.And(3, 3, 9)
	b.Add(3, 3, 4)
	b.Shri(4, 3, 4)
	b.Add(3, 3, 4)
	b.And(3, 3, 10)
	b.Mul(3, 3, 11)
	b.Shri(3, 3, 24)
	b.Add(5, 5, 3)
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	b.Label("done")
	b.MoviU(3, resBase)
	b.Sw(5, 3, 0)
	b.Halt()

	return &Instance{
		Name: "bitcount",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(datBase, data)
		},
		Check: func(c *isa.CPU) error {
			if got := c.Mem.Load(resBase, 4); got != want {
				return fmt.Errorf("popcount = %d, want %d", got, want)
			}
			return nil
		},
		MaxSteps: 200_000,
		Arrays: []Array{
			{Name: "data", Base: datBase, Size: n * 4},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}
