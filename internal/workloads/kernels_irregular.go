package workloads

import (
	"fmt"

	"lpmem/internal/isa"
)

// HashLookup builds an open-addressing hash-table lookup kernel: 4096
// Zipf-distributed queries probe a 64 KiB table, so a few scattered slots
// become very hot while rarely queried slots are touched once or twice.
// Embedded routing/symbol tables behave exactly like this, and the
// scattered hot blocks are the profile shape address clustering exploits.
func HashLookup(seed int64) *Instance {
	const (
		slots   = 8192
		nq      = 8192 // total lookups; queries cycle through a small ring
		qring   = 1024
		nkeys   = 3000
		tblBase = 0x000B_0000
		qryBase = 0x001B_0000
		resBase = 0x001B_8000
		hashC   = 0x9E3779B1
	)
	r := rng(seed)
	// Build the table in Go with the same probe sequence the kernel uses.
	keys := make([]uint32, 0, nkeys)
	seen := make(map[uint32]bool, nkeys)
	tbl := make([]uint32, slots*2) // interleaved {key, value}
	insert := func(k, v uint32) {
		h := (k * hashC) >> 19 & (slots - 1)
		for tbl[h*2] != 0 {
			h = (h + 1) & (slots - 1)
		}
		tbl[h*2] = k
		tbl[h*2+1] = v
	}
	for len(keys) < nkeys {
		k := r.Uint32() | 1 // nonzero
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		insert(k, uint32(len(keys)))
	}
	// Zipf-ish query mix: raising the uniform variate to the fourth
	// power concentrates queries heavily on the lowest ranks, matching
	// the sharply skewed key popularity of real lookup tables.
	queries := make([]uint32, qring)
	for i := range queries {
		f := r.Float64()
		f *= f
		queries[i] = keys[int(f*f*float64(nkeys))]
	}
	// Golden.
	var want uint32
	for i := 0; i < nq; i++ {
		q := queries[i%qring]
		h := (q * hashC) >> 19 & (slots - 1)
		for {
			k := tbl[h*2]
			if k == q {
				want += tbl[h*2+1]
				break
			}
			if k == 0 {
				break
			}
			h = (h + 1) & (slots - 1)
		}
	}

	b := isa.NewBuilder()
	b.MoviU(7, tblBase)
	b.MoviU(8, qryBase)
	b.Movi(5, 0) // sum
	b.Movi(1, 0)
	b.Movi(2, nq)
	b.MoviU(9, hashC)
	b.Label("qloop")
	b.Bge(1, 2, "done")
	b.Andi(3, 1, qring-1)
	b.Shli(3, 3, 2)
	b.Add(3, 3, 8)
	b.Lw(3, 3, 0) // q
	b.Mul(4, 3, 9)
	b.Shri(4, 4, 19)
	b.Andi(4, 4, slots-1)
	b.Label("probe")
	b.Shli(6, 4, 3)
	b.Add(6, 6, 7)
	b.Lw(10, 6, 0) // slot key
	b.Beq(10, 3, "found")
	b.Movi(11, 0)
	b.Beq(10, 11, "next")
	b.Addi(4, 4, 1)
	b.Andi(4, 4, slots-1)
	b.Jmp("probe")
	b.Label("found")
	b.Lw(10, 6, 4)
	b.Add(5, 5, 10)
	b.Label("next")
	b.Addi(1, 1, 1)
	b.Jmp("qloop")
	b.Label("done")
	b.MoviU(3, resBase)
	b.Sw(5, 3, 0)
	b.Halt()

	return &Instance{
		Name: "hashlookup",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(tblBase, tbl)
			c.Mem.LoadWords(qryBase, queries)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.Load(resBase, 4)
			if got != want {
				return fmt.Errorf("sum = %#x, want %#x", got, want)
			}
			return nil
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "table", Base: tblBase, Size: slots * 8},
			{Name: "queries", Base: qryBase, Size: qring * 4},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}

// ListChase builds a pool-allocated linked-list traversal: a ring of 4096
// nodes in randomized pool order is walked fully once (touching every
// node) and then the first 96 ring positions — scattered across the 64 KiB
// pool — are walked 200 more times. This models packet descriptors, free
// lists and other pointer-heavy embedded structures where the hot set is
// physically scattered.
func ListChase(seed int64) *Instance {
	const (
		nodes    = 4096
		nodeSize = 16
		hotLen   = 96
		hotReps  = 200
		poolBase = 0x000D_0000
		resBase  = 0x001D_0000
	)
	r := rng(seed)
	perm := r.Perm(nodes) // ring order: perm[0] -> perm[1] -> ...
	pool := make([]uint32, nodes*nodeSize/4)
	nodeAddr := func(i int) uint32 { return poolBase + uint32(i)*nodeSize }
	for pos, node := range perm {
		next := perm[(pos+1)%nodes]
		pool[node*4+0] = nodeAddr(next)       // next pointer
		pool[node*4+1] = uint32(r.Intn(1000)) // value
	}
	// Golden.
	var want uint32
	walk := func(start int, steps int) {
		pos := start
		for s := 0; s < steps; s++ {
			node := perm[pos%nodes]
			want += pool[node*4+1]
			pos++
		}
	}
	walk(0, nodes)
	for rep := 0; rep < hotReps; rep++ {
		walk(0, hotLen)
	}

	b := isa.NewBuilder()
	head := nodeAddr(perm[0])
	b.Movi(5, 0) // sum
	// Full ring, once.
	b.MoviU(3, head)
	b.Movi(1, 0)
	b.Movi(2, nodes)
	b.Label("full")
	b.Bge(1, 2, "fulldone")
	b.Lw(4, 3, 4) // value
	b.Add(5, 5, 4)
	b.Lw(3, 3, 0) // next
	b.Addi(1, 1, 1)
	b.Jmp("full")
	b.Label("fulldone")
	// Hot prefix, hotReps times.
	b.Movi(6, 0) // rep counter
	b.Movi(7, hotReps)
	b.Label("rep")
	b.Bge(6, 7, "done")
	b.MoviU(3, head)
	b.Movi(1, 0)
	b.Movi(2, hotLen)
	b.Label("hot")
	b.Bge(1, 2, "hotdone")
	b.Lw(4, 3, 4)
	b.Add(5, 5, 4)
	b.Lw(3, 3, 0)
	b.Addi(1, 1, 1)
	b.Jmp("hot")
	b.Label("hotdone")
	b.Addi(6, 6, 1)
	b.Jmp("rep")
	b.Label("done")
	b.MoviU(3, resBase)
	b.Sw(5, 3, 0)
	b.Halt()

	return &Instance{
		Name: "listchase",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(poolBase, pool)
		},
		Check: func(c *isa.CPU) error {
			got := c.Mem.Load(resBase, 4)
			if got != want {
				return fmt.Errorf("sum = %d, want %d", got, want)
			}
			return nil
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "pool", Base: poolBase, Size: nodes * nodeSize},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}

// SpMV builds a CSR sparse matrix-vector multiply y = A*x with a power-law
// column distribution: a handful of x entries, scattered through the 16 KiB
// vector, take most of the references. A norm pass first touches all of x.
func SpMV(seed int64) *Instance {
	const (
		rows    = 256
		cols    = 4096
		nnzRow  = 16
		rpBase  = 0x0020_0000
		ciBase  = 0x0020_4000
		vaBase  = 0x0020_C000
		xBase   = 0x0021_4000
		yBase   = 0x0021_C000
		resBase = 0x0021_E000
	)
	r := rng(seed)
	x := words16(r, cols)
	rowPtr := make([]uint32, rows+1)
	colIdx := make([]uint32, 0, rows*nnzRow)
	vals := make([]uint32, 0, rows*nnzRow)
	for i := 0; i < rows; i++ {
		rowPtr[i] = uint32(len(colIdx))
		for k := 0; k < nnzRow; k++ {
			// Power-law column choice: squaring biases toward low
			// columns, then a seeded affine map scatters them.
			f := r.Float64()
			col := uint32(f * f * cols)
			col = (col*769 + 13) % cols
			colIdx = append(colIdx, col)
			vals = append(vals, uint32(int32(r.Intn(64)-32)))
		}
	}
	rowPtr[rows] = uint32(len(colIdx))
	// Golden: norm + y.
	var norm uint32
	for _, xv := range x {
		norm += xv * xv
	}
	y := make([]uint32, rows)
	for i := 0; i < rows; i++ {
		var acc uint32
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			acc += vals[p] * x[colIdx[p]]
		}
		y[i] = acc
	}

	b := isa.NewBuilder()
	b.MoviU(7, xBase)
	// Norm pass.
	b.Movi(5, 0)
	b.Movi(1, 0)
	b.Movi(2, cols)
	b.Label("norm")
	b.Bge(1, 2, "normdone")
	b.Shli(3, 1, 2)
	b.Add(3, 3, 7)
	b.Lw(4, 3, 0)
	b.Mul(4, 4, 4)
	b.Add(5, 5, 4)
	b.Addi(1, 1, 1)
	b.Jmp("norm")
	b.Label("normdone")
	b.MoviU(3, resBase)
	b.Sw(5, 3, 0)
	// SpMV.
	b.MoviU(8, rpBase)
	b.MoviU(9, ciBase)
	b.MoviU(10, vaBase)
	b.MoviU(11, yBase)
	b.Movi(1, 0) // row i
	b.Movi(2, rows)
	b.Label("row")
	b.Bge(1, 2, "done")
	b.Shli(3, 1, 2)
	b.Add(3, 3, 8)
	b.Lw(4, 3, 0) // p = rowPtr[i]
	b.Lw(6, 3, 4) // end = rowPtr[i+1]
	b.Movi(5, 0)  // acc
	b.Label("nz")
	b.Bge(4, 6, "nzdone")
	b.Shli(3, 4, 2)
	b.Add(3, 3, 9)
	b.Lw(12, 3, 0) // col
	b.Shli(12, 12, 2)
	b.Add(12, 12, 7)
	b.Lw(12, 12, 0) // x[col]
	b.Shli(3, 4, 2)
	b.Add(3, 3, 10)
	b.Lw(3, 3, 0) // val
	b.Mul(3, 3, 12)
	b.Add(5, 5, 3)
	b.Addi(4, 4, 1)
	b.Jmp("nz")
	b.Label("nzdone")
	b.Shli(3, 1, 2)
	b.Add(3, 3, 11)
	b.Sw(5, 3, 0)
	b.Addi(1, 1, 1)
	b.Jmp("row")
	b.Label("done")
	b.Halt()

	return &Instance{
		Name: "spmv",
		Prog: b.MustAssemble(),
		Init: func(c *isa.CPU) {
			c.Mem.LoadWords(rpBase, rowPtr)
			c.Mem.LoadWords(ciBase, colIdx)
			c.Mem.LoadWords(vaBase, vals)
			c.Mem.LoadWords(xBase, x)
		},
		Check: func(c *isa.CPU) error {
			if got := c.Mem.Load(resBase, 4); got != norm {
				return fmt.Errorf("norm = %#x, want %#x", got, norm)
			}
			got := c.Mem.ReadWords(yBase, rows)
			return compareWords("y", y, got)
		},
		MaxSteps: 500_000,
		Arrays: []Array{
			{Name: "rowptr", Base: rpBase, Size: (rows + 1) * 4},
			{Name: "colidx", Base: ciBase, Size: rows * nnzRow * 4},
			{Name: "vals", Base: vaBase, Size: rows * nnzRow * 4},
			{Name: "x", Base: xBase, Size: cols * 4},
			{Name: "y", Base: yBase, Size: rows * 4},
			{Name: "res", Base: resBase, Size: 4},
		},
	}
}
