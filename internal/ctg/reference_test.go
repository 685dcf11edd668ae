package ctg

import (
	"math"
	"math/rand"
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
