// Package bdd implements reduced ordered binary decision diagrams and
// exact variable-order minimization with combined lower bounds,
// reproducing DATE'03 8D.2 (Ebendt, Günther, Drechsler: "Combination of
// Lower Bounds in Exact BDD Minimization").
//
// The size of a ROBDD depends on the variable order — from linear to
// exponential for the same function — and finding the optimal order is
// NP-complete. The classic exact algorithm (Friedman/Supowit) runs a
// branch-and-bound over variable-order *prefixes*: the nodes in the top k
// levels depend only on the *set* of the first k variables, not their
// order, so the search space is the subset lattice. The paper's
// contribution is pruning this search with a combination of lower bounds
// instead of a single one; this package implements three and counts
// expanded states with each configuration, reproducing the paper's
// "avoided computations" result.
//
// Functions are represented by truth tables (up to 16 variables), and a
// hash-consed node-based ROBDD can be built for any order to cross-check
// the counting-based size computation.
//
//lint:hotpath
package bdd

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// TruthTable is a boolean function of N variables as a packed bitset:
// bit m holds f(m) where variable i corresponds to bit i of the input
// index m.
type TruthTable struct {
	N    int
	bits []uint64
}

// NewTruthTable allocates a constant-false function of n variables.
func NewTruthTable(n int) (*TruthTable, error) {
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("bdd: variable count %d out of range (1..16)", n)
	}
	words := (1<<uint(n) + 63) / 64
	return &TruthTable{N: n, bits: make([]uint64, words)}, nil
}

// Get returns f(m).
func (t *TruthTable) Get(m int) bool { return t.bits[m/64]>>(uint(m)%64)&1 == 1 }

// Set assigns f(m) = v.
func (t *TruthTable) Set(m int, v bool) {
	if v {
		t.bits[m/64] |= 1 << (uint(m) % 64)
	} else {
		t.bits[m/64] &^= 1 << (uint(m) % 64)
	}
}

// FromFunc builds a truth table by evaluating f on every minterm.
func FromFunc(n int, f func(m int) bool) (*TruthTable, error) {
	t, err := NewTruthTable(n)
	if err != nil {
		return nil, err
	}
	for m := 0; m < 1<<uint(n); m++ {
		t.Set(m, f(m))
	}
	return t, nil
}

// lowHalf[i] has the bits m of a word whose bit i is clear: the
// positions of the x_i = 0 halves of a cofactor's x_i pairs.
var lowHalf = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// scratch is the working memory of the cofactor kernels. The top-level
// calls (SizeForOrder, Sift, Minimize) each own one, so no state is
// shared between concurrent calls and a level allocates only the keys of
// the classes it finds.
type scratch struct {
	cof  []uint64
	key  []byte
	seen map[string]struct{}
}

// newScratch sizes the buffers for t's widest cofactor, t itself.
func newScratch(t *TruthTable) *scratch {
	return &scratch{
		cof:  make([]uint64, len(t.bits)),
		key:  make([]byte, 0, 8*len(t.bits)),
		seen: make(map[string]struct{}),
	}
}

// cofactor extracts into sc.cof the cofactor of f where the variables in
// fixed are fixed to the bits of val, flattened over the remaining (free)
// variables in ascending variable order: bit m of the result is f at the
// m-th free assignment. The masked increment visits the free assignments
// in ascending order, so each output bit costs one table read.
func (sc *scratch) cofactor(t *TruthTable, fixed, val int) []uint64 {
	n := t.N - bits.OnesCount(uint(fixed))
	cof := sc.cof[:(1<<n+63)/64]
	clear(cof)
	full := val
	for m := 0; m < 1<<n; m++ {
		cof[m>>6] |= t.bits[full>>6] >> (uint(full) & 63) & 1 << (uint(m) & 63)
		full = ((full|fixed)+1)&^fixed | val
	}
	return cof
}

// dependsOn reports whether a cofactor depends on its free variable of
// index i: whether some pair of bits m and m|1<<i differs.
func dependsOn(cof []uint64, i int) bool {
	if i < 6 {
		for _, w := range cof {
			if (w^w>>(1<<i))&lowHalf[i] != 0 {
				return true
			}
		}
		return false
	}
	stride := 1 << (i - 6)
	for w := range cof {
		if w&stride == 0 && cof[w] != cof[w+stride] {
			return true
		}
	}
	return false
}

// classes counts the distinct cofactors of f w.r.t. the variables in
// set; with dep >= 0, only those that depend on their free variable of
// index dep.
func (sc *scratch) classes(t *TruthTable, set, dep int) int {
	clear(sc.seen)
	count := 0
	for val := 0; ; {
		cof := sc.cofactor(t, set, val)
		sc.key = sc.key[:0]
		for _, w := range cof {
			sc.key = binary.LittleEndian.AppendUint64(sc.key, w)
		}
		if _, ok := sc.seen[string(sc.key)]; !ok {
			sc.seen[string(sc.key)] = struct{}{}
			if dep < 0 || dependsOn(cof, dep) {
				count++
			}
		}
		// Next subset of set in ascending order; wraps to 0 after the last.
		if val = (val - set) & set; val == 0 {
			return count
		}
	}
}

// levelNodes returns the number of BDD nodes labeled with variable v
// when the set `above` (bitmask) of variables occupies the levels above
// v: the count of distinct cofactors w.r.t. `above` that essentially
// depend on v. This is the Friedman-Supowit characterization — it
// depends only on the set, not on the order within it.
func (sc *scratch) levelNodes(t *TruthTable, above int, v int) int {
	if above>>uint(v)&1 == 1 {
		//lint:allow panicfree documented precondition; callers enumerate sets that exclude v by construction
		panic("bdd: v must not be in the set above it")
	}
	above &= 1<<uint(t.N) - 1
	// v's index among the free variables.
	return sc.classes(t, above, bits.OnesCount(uint(^above&(1<<uint(v)-1))))
}

// SizeForOrder returns the ROBDD node count (internal nodes, excluding
// terminals) for the given variable order (order[0] is the top level).
func (t *TruthTable) SizeForOrder(order []int) (int, error) {
	return t.sizeForOrder(newScratch(t), order)
}

func (t *TruthTable) sizeForOrder(sc *scratch, order []int) (int, error) {
	if len(order) != t.N {
		return 0, fmt.Errorf("bdd: order has %d variables, want %d", len(order), t.N)
	}
	seen := 0
	total := 0
	for _, v := range order {
		if v < 0 || v >= t.N || seen>>uint(v)&1 == 1 {
			return 0, fmt.Errorf("bdd: order is not a permutation")
		}
		total += sc.levelNodes(t, seen, v)
		seen |= 1 << uint(v)
	}
	return total, nil
}

// IdentityOrder returns 0..n-1.
func IdentityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// popcount16 counts set bits of a small mask.
func popcount16(m int) int { return bits.OnesCount32(uint32(m)) }
