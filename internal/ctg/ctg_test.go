package ctg

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestValidateCatchesErrors(t *testing.T) {
	g := CruiseController()
	if err := g.Validate(); err != nil {
		t.Fatalf("cruise controller should validate: %v", err)
	}
	bad := &Graph{
		Tasks: []Task{{WCET: 1, Power: 1, Guard: Guard{Var: 3}}},
		Deps:  [][]int{{}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("guard on unknown condition must be rejected")
	}
	cyc := &Graph{
		Tasks: []Task{{WCET: 1, Power: 1, Guard: Guard{Var: NoCond}}, {WCET: 1, Power: 1, Guard: Guard{Var: NoCond}}},
		Deps:  [][]int{{1}, {0}},
	}
	if err := cyc.Validate(); err == nil {
		t.Error("cycle must be rejected")
	}
}

func TestScenariosSumToOne(t *testing.T) {
	g := CruiseController()
	sum := 0.0
	for _, sc := range g.Scenarios() {
		sum += sc.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scenario probabilities sum to %f", sum)
	}
	if len(g.Scenarios()) != 4 {
		t.Fatalf("want 4 scenarios for 2 conditions, got %d", len(g.Scenarios()))
	}
}

// TestConditionalExclusion: in a no-obstacle scenario the brake tasks are
// inactive and the speed tasks active, and vice versa.
func TestConditionalExclusion(t *testing.T) {
	g := CruiseController()
	scObstacle := Scenario{Outcomes: []bool{true, false}, Prob: 1}
	scClear := Scenario{Outcomes: []bool{false, false}, Prob: 1}
	if !g.Active(4, scObstacle) || g.Active(4, scClear) {
		t.Error("brake-plan activity wrong")
	}
	if g.Active(6, scObstacle) || !g.Active(6, scClear) {
		t.Error("speed-plan activity wrong")
	}
	if !g.Active(0, scObstacle) || !g.Active(0, scClear) {
		t.Error("unconditional task must always be active")
	}
}

// TestMakespanRespectsDependencies: a two-task chain on one processor
// takes the sum of WCETs.
func TestMakespanChain(t *testing.T) {
	g := &Graph{
		Tasks: []Task{
			{WCET: 5, Power: 1, Guard: Guard{Var: NoCond}},
			{WCET: 7, Power: 1, Guard: Guard{Var: NoCond}},
		},
		Deps:     [][]int{{}, {0}},
		Deadline: 100,
	}
	ms := g.Makespan([]int{0, 0}, 1, nil, Scenario{})
	if ms != 12 {
		t.Fatalf("chain makespan = %f, want 12", ms)
	}
	// On two processors the chain is still serial.
	ms2 := g.Makespan([]int{0, 1}, 2, nil, Scenario{})
	if ms2 != 12 {
		t.Fatalf("chain on 2 procs = %f, want 12", ms2)
	}
}

// TestDVSSavesEnergy is the E11 core claim: DVS on the CTG must cut
// expected energy meaningfully with every scenario still meeting the
// deadline.
func TestDVSSavesEnergy(t *testing.T) {
	g := CruiseController()
	const procs = 2
	mapping := RoundRobin(len(g.Tasks), procs)
	nominal := g.Energy(nil)
	stretch, err := g.DVS(mapping, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !g.feasible(mapping, procs, stretch, g.scratch(procs)) {
		t.Fatal("DVS result must be feasible in all scenarios")
	}
	dvsE := g.Energy(stretch)
	saving := 100 * (nominal - dvsE) / nominal
	t.Logf("nominal=%.1f dvs=%.1f saving=%.1f%%", nominal, dvsE, saving)
	if saving < 15 {
		t.Errorf("DVS saving = %.1f%%, want >= 15%%", saving)
	}
	for i, s := range stretch {
		if s < 1 {
			t.Errorf("task %d stretch %f < 1", i, s)
		}
	}
}

// TestGAMappingBeatsDVSAlone: GA mapping + DVS must beat round-robin +
// DVS, reproducing the paper's second claim.
func TestGAMappingBeatsDVSAlone(t *testing.T) {
	g := CruiseController()
	const procs = 2
	rr := RoundRobin(len(g.Tasks), procs)
	stretch, err := g.DVS(rr, procs)
	if err != nil {
		t.Fatal(err)
	}
	dvsOnly := g.Energy(stretch)
	res, err := MapGA(g, procs, DefaultGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("nominal=%.1f dvs-only=%.1f ga+dvs=%.1f", g.Energy(nil), dvsOnly, res.Energy)
	if res.Energy > dvsOnly+1e-9 {
		t.Errorf("GA mapping (%.1f) must not be worse than round-robin (%.1f)", res.Energy, dvsOnly)
	}
	if !g.feasible(res.Mapping, procs, res.Stretch, g.scratch(procs)) {
		t.Error("GA result must be feasible")
	}
}

// TestInfeasibleDeadline: a deadline below the critical path must be
// rejected by DVS.
func TestInfeasibleDeadline(t *testing.T) {
	g := CruiseController()
	g.Deadline = 10
	if _, err := g.DVS(RoundRobin(len(g.Tasks), 2), 2); err == nil {
		t.Fatal("impossible deadline must fail")
	}
}

// TestRandomCTGs: DVS is feasible and saves energy across random graphs.
func TestRandomCTGs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomCTG(seed, 4, 4, 2, 2.0)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		const procs = 3
		mapping := RoundRobin(len(g.Tasks), procs)
		stretch, err := g.DVS(mapping, procs)
		if err != nil {
			// Random instance may be infeasible at this deadline; skip.
			continue
		}
		if got, want := g.Energy(stretch), g.Energy(nil); got >= want {
			t.Errorf("seed %d: DVS did not reduce energy (%.1f >= %.1f)", seed, got, want)
		}
	}
}

// TestScheduleConcurrent: feasible and Makespan share only the graph's
// read-only plans, so four goroutines hammering one fresh Graph (the
// first calls race to build the plans) return exactly the sequential
// results. Run it under -race.
func TestScheduleConcurrent(t *testing.T) {
	const procs = 3
	seq := randomCTG(11, 6, 4, 3, 1.4)
	mappings := make([][]int, 8)
	stretches := make([][]float64, len(mappings))
	for k := range mappings {
		mappings[k] = make([]int, len(seq.Tasks))
		stretches[k] = make([]float64, len(seq.Tasks))
		for i := range mappings[k] {
			mappings[k][i] = (i*7 + k) % procs
			stretches[k][i] = 1 + float64((i+k)%5)/4
		}
	}
	type result struct {
		feasible  bool
		makespans []float64
	}
	run := func(g *Graph, k int) result {
		res := result{feasible: g.feasible(mappings[k], procs, stretches[k], g.scratch(procs))}
		for _, sc := range g.Scenarios() {
			res.makespans = append(res.makespans, g.Makespan(mappings[k], procs, stretches[k], sc))
		}
		return res
	}
	want := make([]result, len(mappings))
	for k := range mappings {
		want[k] = run(seq, k)
	}

	shared := randomCTG(11, 6, 4, 3, 1.4)
	got := make([][]result, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for k := range mappings {
					got[w] = append(got[w], run(shared, (k+w)%len(mappings)))
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for idx, res := range got[w] {
			k := (idx%len(mappings) + w) % len(mappings)
			if res.feasible != want[k].feasible {
				t.Fatalf("goroutine %d mapping %d: feasible %v, sequential %v", w, k, res.feasible, want[k].feasible)
			}
			for s := range res.makespans {
				if math.Float64bits(res.makespans[s]) != math.Float64bits(want[k].makespans[s]) {
					t.Fatalf("goroutine %d mapping %d scenario %d: makespan %v, sequential %v",
						w, k, s, res.makespans[s], want[k].makespans[s])
				}
			}
		}
	}
}

// randomCTG generates a layered conditional task graph for the
// randomized tests: layers of tasks with edges to the previous layer, a
// fraction of tasks guarded by one of nConds conditions.
func randomCTG(seed int64, layers, perLayer, nConds int, deadlineSlack float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{}
	for v := 0; v < nConds; v++ {
		g.CondProb = append(g.CondProb, 0.2+0.6*rng.Float64())
	}
	totalWCET := 0.0
	for l := 0; l < layers; l++ {
		for k := 0; k < perLayer; k++ {
			t := Task{
				Name:  "t",
				WCET:  2 + float64(rng.Intn(12)),
				Power: 1 + 2*rng.Float64(),
				Guard: Guard{Var: NoCond},
			}
			if nConds > 0 && rng.Float64() < 0.4 {
				t.Guard = Guard{Var: rng.Intn(nConds), Val: rng.Intn(2) == 0}
			}
			totalWCET += t.WCET
			g.Tasks = append(g.Tasks, t)
			var deps []int
			if l > 0 {
				prevStart := (l - 1) * perLayer
				for d := 0; d < 1+rng.Intn(2); d++ {
					deps = append(deps, prevStart+rng.Intn(perLayer))
				}
			}
			g.Deps = append(g.Deps, deps)
		}
	}
	// Deadline: serial WCET / layers gives a rough parallel makespan;
	// multiply by the requested slack factor.
	g.Deadline = totalWCET / float64(perLayer) * deadlineSlack
	return g
}
