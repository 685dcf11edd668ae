// Package ctg implements scheduling, dynamic voltage scaling (DVS) and
// genetic-algorithm mapping for conditional task graphs, reproducing
// DATE'03 2B.2 (Wu, Al-Hashimi, Eles: "Scheduling and Mapping of
// Conditional Task Graphs for the Synthesis of Low Power Embedded
// Systems").
//
// A conditional task graph (CTG) extends a task DAG with condition
// variables: a task guarded by a condition only executes in the runs where
// the condition holds, so different runs ("scenarios") execute different
// subgraphs. The available slack under a deadline therefore differs per
// scenario; the DVS pass must pick voltage (stretch) factors that meet the
// deadline in the *worst* scenario while harvesting the slack that exists
// in all of them. Combining the DVS pass with a genetic algorithm over the
// task-to-processor mapping finds mappings whose schedules expose more
// exploitable slack, which is where the paper's larger savings come from.
//
// Energy model: lowering the supply voltage stretches a task by a factor
// s >= 1 and scales its energy by 1/s² (E ∝ V², V ∝ f). A task's nominal
// energy is Power × WCET.
package ctg

import (
	"fmt"
	"sort"
	"sync"
)

// NoCond marks an unconditional task.
const NoCond = -1

// Guard gates a task on one condition variable's outcome.
type Guard struct {
	// Var is the condition-variable index, or NoCond.
	Var int
	// Val is the outcome under which the task executes.
	Val bool
}

// Task is one node of the CTG.
type Task struct {
	Name string
	// WCET is the worst-case execution time at nominal voltage.
	WCET float64
	// Power is the nominal power draw while executing.
	Power float64
	// Guard gates execution.
	Guard Guard
}

// Graph is a conditional task graph. The structural fields (Tasks, Deps,
// CondProb) must not be mutated once scheduling starts: the scheduler
// memoizes the task priorities, the scenario set and each scenario's
// pick order on first use, because the DVS search and the GA evaluate
// tens of thousands of schedules against the same structure.
type Graph struct {
	Tasks []Task
	// Deps[i] lists the predecessors of task i.
	Deps [][]int
	// CondProb[v] is the probability that condition v is true.
	CondProb []float64
	// Deadline is the hard completion bound for every scenario.
	Deadline float64

	schedOnce sync.Once
	sched     *sched
}

// sched holds the mapping-independent scheduling invariants of a graph,
// including the list scheduler's pick order for every scenario. It is
// read-only once built, so concurrent Makespan and feasible calls share
// it without locking; their scratch state is per call.
type sched struct {
	prio      []float64
	scenarios []Scenario
	// plans[k] is the pick order of scenarios[k].
	plans []plan
	err   error
}

// scheduler builds (once) and returns the graph's cached invariants.
func (g *Graph) scheduler() *sched {
	g.schedOnce.Do(func() {
		s := &sched{}
		order, err := g.topo()
		if err != nil {
			s.err = err
			g.sched = s
			return
		}
		n := len(g.Tasks)
		succ := make([][]int, n)
		for i, deps := range g.Deps {
			for _, d := range deps {
				succ[d] = append(succ[d], i)
			}
		}
		// Longest path to exit at nominal WCET (list-scheduling priority).
		s.prio = make([]float64, n)
		for k := n - 1; k >= 0; k-- {
			v := order[k]
			s.prio[v] = g.Tasks[v].WCET
			for _, sc := range succ[v] {
				if s.prio[sc]+g.Tasks[v].WCET > s.prio[v] {
					s.prio[v] = s.prio[sc] + g.Tasks[v].WCET
				}
			}
		}
		s.scenarios = g.Scenarios()
		s.plans = make([]plan, len(s.scenarios))
		for k, sc := range s.scenarios {
			s.plans[k] = g.pickOrder(s.prio, sc)
		}
		g.sched = s
	})
	return g.sched
}

// plan is the list scheduler's pick order for one scenario. The
// scheduler always picks the ready active task with the highest
// priority, ties to the lower index, and readiness depends only on which
// tasks are done. So the order depends on the scenario's active set, the
// deps and the nominal-WCET priorities, never on the mapping or the
// stretches. picks lists the active tasks in pick order, and
// deps[off[p]:off[p+1]] lists the active predecessors of picks[p] in
// Deps order.
type plan struct {
	picks []int
	off   []int
	deps  []int
}

// pickOrder computes the pick order of scenario sc on an acyclic graph.
func (g *Graph) pickOrder(prio []float64, sc Scenario) plan {
	n := len(g.Tasks)
	active := make([]bool, n)
	done := make([]bool, n)
	remaining := 0
	for i := 0; i < n; i++ {
		active[i] = g.Active(i, sc)
		done[i] = !active[i]
		if active[i] {
			remaining++
		}
	}
	p := plan{picks: make([]int, 0, remaining), off: make([]int, 1, remaining+1)}
	for ; remaining > 0; remaining-- {
		best := -1
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			ready := true
			for _, d := range g.Deps[i] {
				if active[d] && !done[d] {
					ready = false
					break
				}
			}
			// The ascending scan with a strict > keeps the lower index on
			// priority ties.
			if ready && (best < 0 || prio[i] > prio[best]) {
				best = i
			}
		}
		if best < 0 {
			// Unreachable: the active subgraph of an acyclic graph
			// always has a ready task.
			break
		}
		p.picks = append(p.picks, best)
		for _, d := range g.Deps[best] {
			if active[d] {
				p.deps = append(p.deps, d)
			}
		}
		p.off = append(p.off, len(p.deps))
		done[best] = true
	}
	return p
}

// makespan list-schedules along the plan over scratch from g.scratch.
// Each task starts when its processor is free and its active
// predecessors have finished. The finish times need no clearing, because
// a task's entry is written before any successor reads it. Their max
// does not depend on the order they are visited in.
func (p *plan) makespan(tasks []Task, mapping []int, stretch, buf []float64) float64 {
	finish, procFree := buf[:len(tasks)], buf[len(tasks):]
	clear(procFree)
	max := 0.0
	for k, v := range p.picks {
		start := procFree[mapping[v]]
		for _, d := range p.deps[p.off[k]:p.off[k+1]] {
			if finish[d] > start {
				start = finish[d]
			}
		}
		s := 1.0
		if stretch != nil {
			s = stretch[v]
		}
		finish[v] = start + tasks[v].WCET*s
		procFree[mapping[v]] = finish[v]
		if finish[v] > max {
			max = finish[v]
		}
	}
	return max
}

// Validate checks structural sanity (indices, probabilities, acyclicity).
func (g *Graph) Validate() error {
	if len(g.Deps) != len(g.Tasks) {
		return fmt.Errorf("ctg: deps size %d != tasks %d", len(g.Deps), len(g.Tasks))
	}
	for i, deps := range g.Deps {
		for _, d := range deps {
			if d < 0 || d >= len(g.Tasks) {
				return fmt.Errorf("ctg: task %d has bad dep %d", i, d)
			}
		}
	}
	for i, t := range g.Tasks {
		if t.WCET <= 0 || t.Power <= 0 {
			return fmt.Errorf("ctg: task %d needs positive WCET and Power", i)
		}
		if t.Guard.Var != NoCond && (t.Guard.Var < 0 || t.Guard.Var >= len(g.CondProb)) {
			return fmt.Errorf("ctg: task %d guard on unknown condition %d", i, t.Guard.Var)
		}
	}
	for _, p := range g.CondProb {
		if p < 0 || p > 1 {
			return fmt.Errorf("ctg: condition probability %f out of range", p)
		}
	}
	if _, err := g.topo(); err != nil {
		return err
	}
	return nil
}

// topo returns a topological order or an error on cycles.
func (g *Graph) topo() ([]int, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, deps := range g.Deps {
		for _, d := range deps {
			indeg[i]++
			succ[d] = append(succ[d], i)
		}
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		// Smallest index first for determinism.
		sort.Ints(queue)
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("ctg: graph has a cycle")
	}
	return order, nil
}

// Scenario is one assignment of condition outcomes.
type Scenario struct {
	Outcomes []bool
	Prob     float64
}

// Scenarios enumerates all condition combinations with probabilities.
func (g *Graph) Scenarios() []Scenario {
	n := len(g.CondProb)
	out := make([]Scenario, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		s := Scenario{Outcomes: make([]bool, n), Prob: 1}
		for v := 0; v < n; v++ {
			if mask>>v&1 == 1 {
				s.Outcomes[v] = true
				s.Prob *= g.CondProb[v]
			} else {
				s.Prob *= 1 - g.CondProb[v]
			}
		}
		out = append(out, s)
	}
	return out
}

// Active reports whether task i executes in the scenario.
func (g *Graph) Active(i int, sc Scenario) bool {
	gd := g.Tasks[i].Guard
	return gd.Var == NoCond || sc.Outcomes[gd.Var] == gd.Val
}

// unschedulable is the makespan reported for a cyclic graph, which
// Validate excludes.
const unschedulable = 1e18

// Makespan list-schedules the active tasks of a scenario onto processors
// (mapping[i] = processor) with the given per-task stretch factors, and
// returns the completion time. Priorities are longest-path lengths at
// nominal WCET; the policy is deterministic.
func (g *Graph) Makespan(mapping []int, procs int, stretch []float64, sc Scenario) float64 {
	s := g.scheduler()
	if s.err != nil {
		return unschedulable
	}
	p := g.pickOrder(s.prio, sc)
	return p.makespan(g.Tasks, mapping, stretch, g.scratch(procs))
}

// scratch returns list-scheduler state for one caller: a finish time per
// task, then a free time per processor.
func (g *Graph) scratch(procs int) []float64 { return make([]float64, len(g.Tasks)+procs) }

// feasible reports whether all scenarios meet the deadline, over
// caller-owned scratch from g.scratch(procs), so a DVS pass allocates it
// once for all its feasibility checks.
func (g *Graph) feasible(mapping []int, procs int, stretch, buf []float64) bool {
	s := g.scheduler()
	if s.err != nil {
		// Every scenario's makespan is the cycle sentinel.
		return !(unschedulable > g.Deadline+1e-9)
	}
	for k := range s.plans {
		if s.plans[k].makespan(g.Tasks, mapping, stretch, buf) > g.Deadline+1e-9 {
			return false
		}
	}
	return true
}

// cachedScenarios returns the memoized scenario set when the graph is
// schedulable, falling back to a fresh enumeration otherwise. Callers
// must treat the result as read-only.
func (g *Graph) cachedScenarios() []Scenario {
	if s := g.scheduler(); s.err == nil {
		return s.scenarios
	}
	return g.Scenarios()
}

// Energy returns the expected energy over scenarios under the stretches:
// a task running at stretch s consumes Power*WCET/s².
func (g *Graph) Energy(stretch []float64) float64 {
	total := 0.0
	for _, sc := range g.cachedScenarios() {
		e := 0.0
		for i, t := range g.Tasks {
			if !g.Active(i, sc) {
				continue
			}
			s := 1.0
			if stretch != nil {
				s = stretch[i]
			}
			e += t.Power * t.WCET / (s * s)
		}
		total += sc.Prob * e
	}
	return total
}

// DVS computes per-task stretch factors that keep every scenario within
// the deadline: first a global stretch equal to the minimum scenario
// slack, then greedy per-task refinement that keeps stretching the task
// with the highest remaining energy while feasibility holds.
func (g *Graph) DVS(mapping []int, procs int) ([]float64, error) {
	return g.dvsBounded(mapping, procs, 64)
}

// dvsBounded is DVS with a cap on refinement rounds; the GA uses a small
// cap as a fast fitness proxy.
func (g *Graph) dvsBounded(mapping []int, procs int, maxRounds int) ([]float64, error) {
	n := len(g.Tasks)
	buf := g.scratch(procs)
	stretch := make([]float64, n)
	for i := range stretch {
		stretch[i] = 1
	}
	if !g.feasible(mapping, procs, stretch, buf) {
		return nil, fmt.Errorf("ctg: mapping misses the deadline even at nominal voltage")
	}
	// Global stretch: binary search the largest uniform factor.
	lo, hi := 1.0, 16.0
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		for i := range stretch {
			stretch[i] = mid
		}
		if g.feasible(mapping, procs, stretch, buf) {
			lo = mid
		} else {
			hi = mid
		}
	}
	for i := range stretch {
		stretch[i] = lo
	}
	// Greedy per-task refinement.
	const step = 1.05
	improved := true
	for rounds := 0; improved && rounds < maxRounds; rounds++ {
		improved = false
		// Order tasks by current energy contribution, descending.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ea := g.Tasks[idx[a]].Power * g.Tasks[idx[a]].WCET / (stretch[idx[a]] * stretch[idx[a]])
			eb := g.Tasks[idx[b]].Power * g.Tasks[idx[b]].WCET / (stretch[idx[b]] * stretch[idx[b]])
			//lint:allow floatcompare exact tie-break keeps the sort order deterministic
			if ea != eb {
				return ea > eb
			}
			return idx[a] < idx[b]
		})
		for _, i := range idx {
			old := stretch[i]
			stretch[i] = old * step
			if g.feasible(mapping, procs, stretch, buf) {
				improved = true
			} else {
				stretch[i] = old
			}
		}
	}
	return stretch, nil
}
