package ctg

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
)

// GAConfig tunes the genetic mapping search.
type GAConfig struct {
	// Population and Generations size the search.
	Population  int
	Generations int
	// MutationRate is the per-gene mutation probability.
	MutationRate float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultGAConfig returns the settings used by the E11 experiment.
func DefaultGAConfig() GAConfig {
	return GAConfig{Population: 24, Generations: 30, MutationRate: 0.08, Seed: 1}
}

// GAResult is the outcome of the mapping search.
type GAResult struct {
	Mapping []int
	Stretch []float64
	Energy  float64
}

// RoundRobin returns the naive baseline mapping.
func RoundRobin(tasks, procs int) []int {
	m := make([]int, tasks)
	for i := range m {
		m[i] = i % procs
	}
	return m
}

// MapGA searches task-to-processor mappings with a genetic algorithm;
// fitness of a mapping is the expected energy after running the DVS pass
// on it (infeasible mappings are heavily penalized).
func MapGA(g *Graph, procs int, cfg GAConfig) (*GAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("ctg: need at least one processor")
	}
	n := len(g.Tasks)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Fitness uses a cheap DVS (few refinement rounds); the winner is
	// re-evaluated with the full pass at the end. Elites' children and a
	// converging population revisit mappings, and fitness depends on the
	// mapping alone and draws no random numbers, so each distinct mapping
	// is priced once per call. Individuals may share a stretch slice,
	// which nothing writes.
	type fitness struct {
		energy  float64
		stretch []float64
	}
	memo := make(map[string]fitness)
	var key []byte
	evaluate := func(mapping []int) (float64, []float64) {
		key = appendKey(key[:0], mapping)
		if f, ok := memo[string(key)]; ok {
			return f.energy, f.stretch
		}
		f := fitness{energy: 1e18}
		if stretch, err := g.dvsBounded(mapping, procs, 6); err == nil {
			f = fitness{g.Energy(stretch), stretch}
		}
		memo[string(key)] = f
		return f.energy, f.stretch
	}

	type individual struct {
		mapping []int
		energy  float64
		stretch []float64
	}
	pop := make([]individual, cfg.Population)
	for p := range pop {
		m := make([]int, n)
		if p == 0 {
			copy(m, RoundRobin(n, procs)) // seed with the baseline
		} else {
			for i := range m {
				m[i] = rng.Intn(procs)
			}
		}
		e, s := evaluate(m)
		pop[p] = individual{mapping: m, energy: e, stretch: s}
	}
	sortPop := func() {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].energy < pop[b].energy })
	}
	sortPop()

	tournament := func() individual {
		a := pop[rng.Intn(len(pop))]
		b := pop[rng.Intn(len(pop))]
		if a.energy <= b.energy {
			return a
		}
		return b
	}
	for gen := 0; gen < cfg.Generations; gen++ {
		next := make([]individual, 0, cfg.Population)
		// Elitism: carry the best two.
		next = append(next, pop[0], pop[1])
		for len(next) < cfg.Population {
			pa, pb := tournament(), tournament()
			child := make([]int, n)
			cut := rng.Intn(n)
			copy(child, pa.mapping[:cut])
			copy(child[cut:], pb.mapping[cut:])
			for i := range child {
				if rng.Float64() < cfg.MutationRate {
					child[i] = rng.Intn(procs)
				}
			}
			e, s := evaluate(child)
			next = append(next, individual{mapping: child, energy: e, stretch: s})
		}
		pop = next
		sortPop()
	}
	best := pop[0]
	if best.stretch == nil {
		return nil, fmt.Errorf("ctg: GA found no feasible mapping")
	}
	stretch, err := g.DVS(best.mapping, procs)
	if err != nil {
		return nil, err
	}
	return &GAResult{Mapping: best.mapping, Stretch: stretch, Energy: g.Energy(stretch)}, nil
}

// appendKey appends mapping's memo key to dst: its genes as uvarints.
// The encoding is prefix-free, so two mappings of one length share a key
// only when they are equal, whatever the number of processors.
func appendKey(dst []byte, mapping []int) []byte {
	for _, p := range mapping {
		dst = binary.AppendUvarint(dst, uint64(p))
	}
	return dst
}
