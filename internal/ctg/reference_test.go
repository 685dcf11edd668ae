package ctg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refMakespan is the task-by-task list scheduler the pick-order plans
// replaced: every step rescans all tasks for the ready active one with
// the highest priority and schedules it. The plans must give the same
// float64 for every mapping, stretch and scenario.
func refMakespan(g *Graph, mapping []int, procs int, stretch []float64, sc Scenario) float64 {
	n := len(g.Tasks)
	s := g.scheduler()
	if s.err != nil {
		return 1e18
	}
	prio := s.prio
	done := make([]bool, n)
	active := make([]bool, n)
	finish := make([]float64, n)
	procFree := make([]float64, procs)
	remaining := 0
	for i := 0; i < n; i++ {
		if g.Active(i, sc) {
			active[i] = true
			remaining++
		} else {
			done[i] = true
		}
	}
	for remaining > 0 {
		best := -1
		for i := 0; i < n; i++ {
			if done[i] || !active[i] {
				continue
			}
			ready := true
			for _, d := range g.Deps[i] {
				if active[d] && !done[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if best < 0 || prio[i] > prio[best] || (prio[i] == prio[best] && i < best) {
				best = i
			}
		}
		if best < 0 {
			return 1e18
		}
		start := procFree[mapping[best]]
		for _, d := range g.Deps[best] {
			if active[d] && finish[d] > start {
				start = finish[d]
			}
		}
		s := 1.0
		if stretch != nil {
			s = stretch[best]
		}
		finish[best] = start + g.Tasks[best].WCET*s
		procFree[mapping[best]] = finish[best]
		done[best] = true
		remaining--
	}
	max := 0.0
	for i := 0; i < n; i++ {
		if active[i] && finish[i] > max {
			max = finish[i]
		}
	}
	return max
}

// refFeasible is feasible over refMakespan.
func refFeasible(g *Graph, mapping []int, procs int, stretch []float64) bool {
	for _, sc := range g.Scenarios() {
		if refMakespan(g, mapping, procs, stretch, sc) > g.Deadline+1e-9 {
			return false
		}
	}
	return true
}

// tiedCTG draws a random conditional task graph whose WCETs come from
// {1, 2, 3}, so many tasks tie on priority and the index tie-break
// decides the pick order. Edges run from a random permutation's earlier
// tasks to later ones, so the topological order is not the index order.
func tiedCTG(r *rand.Rand) *Graph {
	n := 1 + r.Intn(14)
	nConds := r.Intn(4)
	g := &Graph{Tasks: make([]Task, n), Deps: make([][]int, n)}
	for v := 0; v < nConds; v++ {
		g.CondProb = append(g.CondProb, r.Float64())
	}
	perm := r.Perm(n)
	for k, i := range perm {
		g.Tasks[i] = Task{WCET: float64(1 + r.Intn(3)), Power: 1 + r.Float64(), Guard: Guard{Var: NoCond}}
		if nConds > 0 && r.Intn(3) == 0 {
			g.Tasks[i].Guard = Guard{Var: r.Intn(nConds), Val: r.Intn(2) == 0}
		}
		for _, d := range perm[:k] {
			if r.Intn(4) == 0 {
				g.Deps[i] = append(g.Deps[i], d)
			}
		}
	}
	return g
}

// randomStretch returns nil (nominal voltage) or per-task stretches
// mixing exact small values, which keep finish times tied, with
// arbitrary ones.
func randomStretch(r *rand.Rand, n int) []float64 {
	if r.Intn(4) == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		switch r.Intn(3) {
		case 0:
			s[i] = 1
		case 1:
			s[i] = float64(1 + r.Intn(3))
		default:
			s[i] = 1 + 3*r.Float64()
		}
	}
	return s
}

// TestMakespanMatchesReference: the plan-based scheduler returns the
// reference makespan bit for bit in every scenario, on graphs with tied
// priorities, 1 to 4 processors and random stretches. feasible, over
// fresh scratch and over scratch reused across calls as a DVS pass
// reuses it, agrees with the reference at deadlines on both sides of
// each worst case.
func TestMakespanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		g := tiedCTG(r)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		n := len(g.Tasks)
		procs := 1 + r.Intn(4)
		buf := g.scratch(procs)
		for rep := 0; rep < 5; rep++ {
			mapping := make([]int, n)
			for i := range mapping {
				mapping[i] = r.Intn(procs)
			}
			stretch := randomStretch(r, n)
			worst := 0.0
			for _, sc := range g.Scenarios() {
				got := g.Makespan(mapping, procs, stretch, sc)
				want := refMakespan(g, mapping, procs, stretch, sc)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d scenario %v: makespan %v, reference %v", trial, sc.Outcomes, got, want)
				}
				worst = math.Max(worst, want)
			}
			for _, dl := range []float64{worst, worst - 0.5, worst + 1e-10, worst - 2e-9} {
				g.Deadline = dl
				want := refFeasible(g, mapping, procs, stretch)
				if got := g.feasible(mapping, procs, stretch, g.scratch(procs)); got != want {
					t.Fatalf("trial %d deadline %v: feasible %v, reference %v", trial, dl, got, want)
				}
				if got := g.feasible(mapping, procs, stretch, buf); got != want {
					t.Fatalf("trial %d deadline %v: feasible with reused scratch %v, reference %v", trial, dl, got, want)
				}
			}
		}
	}
}

// refMapGA is MapGA without its fitness memo: every individual the GA
// breeds runs the bounded DVS pass, revisited mappings included.
func refMapGA(g *Graph, procs int, cfg GAConfig) (*GAResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 {
		return nil, fmt.Errorf("ctg: need at least one processor")
	}
	n := len(g.Tasks)
	rng := rand.New(rand.NewSource(cfg.Seed))
	evaluate := func(mapping []int) (float64, []float64) {
		stretch, err := g.dvsBounded(mapping, procs, 6)
		if err != nil {
			return 1e18, nil
		}
		return g.Energy(stretch), stretch
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
			copy(m, RoundRobin(n, procs))
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

// TestMapGAMatchesReference: pricing each distinct mapping once leaves
// the GA's trajectory alone. On the cruise controller at E11's deadline
// slacks, MapGA returns the unmemoised GA's mapping, stretches and
// energy bit for bit, over four seeds at 1 to 3 processors, and over two
// seeds and two slacks at 300 processors, where genes pass 255 (each of
// those GAs costs about ten of the others).
func TestMapGAMatchesReference(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 300} {
		slacks, seeds := []float64{1.05, 1.1, 1.25, 1.5}, int64(4)
		if procs > 3 {
			slacks, seeds = []float64{1.1, 1.5}, 2
		}
		for _, slack := range slacks {
			for seed := int64(1); seed <= seeds; seed++ {
				g := CruiseController()
				rr := RoundRobin(len(g.Tasks), procs)
				worst := 0.0
				for _, sc := range g.Scenarios() {
					worst = math.Max(worst, g.Makespan(rr, procs, nil, sc))
				}
				g.Deadline = worst * slack
				cfg := DefaultGAConfig()
				cfg.Seed = seed
				what := fmt.Sprintf("procs %d slack %v seed %d", procs, slack, seed)
				got, gotErr := MapGA(g, procs, cfg)
				want, wantErr := refMapGA(g, procs, cfg)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !slices.Equal(got.Mapping, want.Mapping) {
					t.Fatalf("%s: mapping %v, reference %v", what, got.Mapping, want.Mapping)
				}
				if len(got.Stretch) != len(want.Stretch) {
					t.Fatalf("%s: %d stretches, reference %d", what, len(got.Stretch), len(want.Stretch))
				}
				for i := range want.Stretch {
					if math.Float64bits(got.Stretch[i]) != math.Float64bits(want.Stretch[i]) {
						t.Fatalf("%s: stretch %v, reference %v", what, got.Stretch, want.Stretch)
					}
				}
				if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) {
					t.Fatalf("%s: energy %v, reference %v", what, got.Energy, want.Energy)
				}
			}
		}
	}
}

// TestMemoKeyIsExact: two mappings share a memo key only when they are
// equal, for genes up to 2²⁴, so processors whose numbers agree in their
// low byte or bytes keep apart.
func TestMemoKeyIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i] = r.Intn(1 << 24)
			b[i] = a[i]
			// Move some genes by a multiple of 256, keeping their low
			// byte, or draw them afresh.
			switch r.Intn(4) {
			case 0:
				b[i] = a[i] ^ 256<<r.Intn(16)
			case 1:
				b[i] = r.Intn(1 << 24)
			}
		}
		ka, kb := string(appendKey(nil, a)), string(appendKey(nil, b))
		if (ka == kb) != slices.Equal(a, b) {
			t.Fatalf("mappings %v and %v: keys equal %v", a, b, ka == kb)
		}
	}
}
