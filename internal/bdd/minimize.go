package bdd

import (
	"fmt"
	"slices"
	"sort"
)

// Exact BDD minimization: branch-and-bound over the subset lattice
// (Friedman/Supowit search space) with configurable lower bounds,
// following DATE'03 8D.2.
//
// A search state is a subset S of variables assigned to the top |S|
// levels; its g-cost is the (order-independent) number of nodes in those
// levels. The algorithm explores states best-first and prunes a state
// when g(S) + LB(S) >= best known total size.

// BoundSet selects which lower bounds prune the search.
type BoundSet struct {
	// Remaining charges one node per remaining essential variable (every
	// essential variable labels at least one node).
	Remaining bool
	// MaxLevel charges the maximum single-level cost over the remaining
	// variables: whichever variable comes next, its level has at least
	// min-over-v nodes... conservatively, at least the cheapest next
	// level plus one per variable after it.
	MaxLevel bool
	// Monotone exploits that the cofactor-class count at the boundary
	// can only shrink by merging: the next level needs at least
	// ceil(classes/2) nodes when classes > 1.
	Monotone bool
}

// AllBounds enables the full combination (the paper's configuration).
func AllBounds() BoundSet { return BoundSet{Remaining: true, MaxLevel: true, Monotone: true} }

// OneBound is the single-bound baseline.
func OneBound() BoundSet { return BoundSet{Remaining: true} }

// MinimizeResult reports the optimum and the search effort.
type MinimizeResult struct {
	// Order is an optimal variable order.
	Order []int
	// Size is the minimal ROBDD node count.
	Size int
	// Expanded counts search states expanded (the paper's effort metric).
	Expanded uint64
}

// essentialVars returns the mask of variables the function depends on.
// With nothing fixed, the cofactor is the truth table itself.
func (t *TruthTable) essentialVars() int {
	mask := 0
	for v := 0; v < t.N; v++ {
		if dependsOn(t.bits, v) {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

// lowerBound computes the configured combined lower bound for the
// remaining variables after subset s.
func (sc *scratch) lowerBound(t *TruthTable, s int, bounds BoundSet, essential int) int {
	remaining := essential &^ s
	if remaining == 0 {
		return 0
	}
	lb := 0
	if bounds.Remaining {
		lb = popcount16(remaining)
	}
	if bounds.MaxLevel {
		// The variable placed next contributes levelNodes(s, v); every
		// order must pick one of them, so the minimum over v is a valid
		// bound for the next level, plus one node for each variable
		// after it.
		min := 1 << 30
		for v := 0; v < t.N; v++ {
			if remaining>>uint(v)&1 == 0 {
				continue
			}
			if n := sc.levelNodes(t, s, v); n < min {
				min = n
			}
		}
		if b := min + popcount16(remaining) - 1; b > lb {
			lb = b
		}
	}
	if bounds.Monotone {
		// Classes at the boundary must be resolved down to the two
		// terminals; each level at most halves... conservatively each
		// level of a BDD reduces distinct classes by at most a factor of
		// 2 only through its nodes, so at least classes-2 nodes remain
		// in total below the boundary (every non-terminal class needs at
		// least one node somewhere below).
		classes := sc.classes(t, s, -1)
		if b := classes - 2; b > lb {
			lb = b
		}
	}
	return lb
}

// Minimize finds an optimal variable order by branch-and-bound with the
// given bound configuration.
func Minimize(t *TruthTable, bounds BoundSet) (*MinimizeResult, error) {
	if t.N > 14 {
		return nil, fmt.Errorf("bdd: exact minimization limited to 14 variables, got %d", t.N)
	}
	essential := t.essentialVars()
	sc := newScratch(t)

	// Incumbent from the identity order.
	best, err := t.sizeForOrder(sc, IdentityOrder(t.N))
	if err != nil {
		return nil, err
	}
	bestOrder := IdentityOrder(t.N)

	// g-cost per subset (order-independent) and the chosen last variable
	// for path reconstruction.
	g := map[int]int{0: 0}
	lastVar := map[int]int{}
	var expanded uint64

	// Best-first expansion over subset sizes (uniform-cost within size).
	frontier := []int{0}
	for size := 0; size < t.N; size++ {
		// Deterministic expansion order: by g then subset value.
		//lint:allow hotalloc search bookkeeping: one sort per subset size, not per level
		sort.Slice(frontier, func(i, j int) bool {
			if g[frontier[i]] != g[frontier[j]] {
				return g[frontier[i]] < g[frontier[j]]
			}
			return frontier[i] < frontier[j]
		})
		//lint:allow hotalloc search bookkeeping: one successor set per subset size
		next := map[int]bool{}
		for _, s := range frontier {
			if g[s]+sc.lowerBound(t, s, bounds, essential) >= best {
				continue // pruned
			}
			expanded++
			for v := 0; v < t.N; v++ {
				if s>>uint(v)&1 == 1 {
					continue
				}
				ns := s | 1<<uint(v)
				cost := g[s] + sc.levelNodes(t, s, v)
				if old, ok := g[ns]; !ok || cost < old {
					g[ns] = cost
					lastVar[ns] = v
				}
				next[ns] = true
			}
		}
		frontier = frontier[:0]
		for s := range next {
			frontier = append(frontier, s)
		}
		// Update the incumbent from complete states.
		full := 1<<uint(t.N) - 1
		if c, ok := g[full]; ok && c < best {
			best = c
			bestOrder = reconstruct(lastVar, full, t.N)
		}
	}
	full := 1<<uint(t.N) - 1
	if c, ok := g[full]; ok && c < best {
		best = c
		bestOrder = reconstruct(lastVar, full, t.N)
	}
	return &MinimizeResult{Order: bestOrder, Size: best, Expanded: expanded}, nil
}

// reconstruct rebuilds the order from the lastVar chain.
func reconstruct(lastVar map[int]int, full, n int) []int {
	//lint:allow hotalloc the result order, built once per improved incumbent
	order := make([]int, n)
	s := full
	for i := n - 1; i >= 0; i-- {
		v := lastVar[s]
		order[i] = v
		s &^= 1 << uint(v)
	}
	return order
}

// Sift runs the classical sifting heuristic: each variable in turn is
// moved to the position minimizing total size, holding the others fixed.
func Sift(t *TruthTable, order []int) ([]int, int, error) {
	cur := append([]int(nil), order...)
	sc := newScratch(t)
	size, err := t.sizeForOrder(sc, cur)
	if err != nil {
		return nil, 0, err
	}
	for v := 0; v < t.N; v++ {
		// Current position of variable v.
		pos := -1
		for i, x := range cur {
			if x == v {
				pos = i
				break
			}
		}
		bestPos, bestSize := pos, size
		for p := 0; p < t.N; p++ {
			if p == pos {
				continue
			}
			cand := moveVar(cur, pos, p)
			s, err := t.sizeForOrder(sc, cand)
			if err != nil {
				return nil, 0, err
			}
			if s < bestSize {
				bestSize, bestPos = s, p
			}
		}
		cur = moveVar(cur, pos, bestPos)
		size = bestSize
	}
	return cur, size, nil
}

// moveVar returns a copy of order with the element at from moved to to.
func moveVar(order []int, from, to int) []int {
	//lint:allow hotalloc the candidate order Sift prices with a whole SizeForOrder
	out := make([]int, 0, len(order))
	out = append(out, order[:from]...)
	out = append(out, order[from+1:]...)
	return slices.Insert(out, to, order[from])
}
