package noc

import (
	"fmt"
	"math"
	"math/rand"
)

// MapAnneal is a simulated-annealing mapper, the classical alternative the
// branch-and-bound mapper is compared against in ablation benchmarks: it
// scales to larger meshes but offers no optimality guarantee.
//
// Moves are pairwise tile swaps; the cost is communication energy with a
// large penalty for bandwidth-infeasible mappings, so the search is pulled
// back into the feasible region.
func MapAnneal(m Mesh, g *Graph, seed int64, iters int) (*MapResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.N > m.Tiles() {
		return nil, fmt.Errorf("noc: %d cores exceed %d tiles", g.N, m.Tiles())
	}
	if iters <= 0 {
		iters = 200_000
	}
	rng := rand.New(rand.NewSource(seed))

	// Work over a full tile permutation so swaps can use empty tiles too.
	perm := make([]int, m.Tiles()) // perm[tile] = ip or -1
	for i := range perm {
		perm[i] = -1
	}
	mapping := RowMajor(g.N)
	for ip, tile := range mapping {
		perm[tile] = ip
	}

	chk := newBWChecker(m, g)
	cost := func(mp []int) float64 {
		c := float64(m.CommEnergy(g, mp))
		if !chk.check(mp) {
			c *= 10 // infeasibility penalty
		}
		return c
	}
	cur := cost(mapping)
	bestMap := append([]int(nil), mapping...)
	bestCost := cur

	t0 := cur / 10
	for it := 0; it < iters; it++ {
		temp := t0 * math.Exp(-4*float64(it)/float64(iters))
		a := rng.Intn(m.Tiles())
		b := rng.Intn(m.Tiles())
		if a == b || (perm[a] < 0 && perm[b] < 0) {
			continue
		}
		perm[a], perm[b] = perm[b], perm[a]
		if perm[a] >= 0 {
			mapping[perm[a]] = a
		}
		if perm[b] >= 0 {
			mapping[perm[b]] = b
		}
		next := cost(mapping)
		if next <= cur || rng.Float64() < math.Exp((cur-next)/math.Max(temp, 1e-9)) {
			cur = next
			if next < bestCost {
				bestCost = next
				copy(bestMap, mapping)
			}
		} else {
			// Undo.
			perm[a], perm[b] = perm[b], perm[a]
			if perm[a] >= 0 {
				mapping[perm[a]] = a
			}
			if perm[b] >= 0 {
				mapping[perm[b]] = b
			}
		}
	}
	if !chk.check(bestMap) {
		return nil, fmt.Errorf("noc: annealing found no bandwidth-feasible mapping")
	}
	return &MapResult{
		Mapping: bestMap,
		Routing: chk.routing,
		Energy:  m.CommEnergy(g, bestMap),
		Visited: uint64(iters),
	}, nil
}
