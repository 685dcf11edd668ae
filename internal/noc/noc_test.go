package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/energy"
)

func TestDistAndBitEnergy(t *testing.T) {
	m := DefaultMesh()
	if d := m.dist(0, 15); d != 6 {
		t.Fatalf("dist(0,15) = %d, want 6 on 4x4", d)
	}
	if d := m.dist(5, 5); d != 0 {
		t.Fatalf("dist(5,5) = %d, want 0", d)
	}
	if e := m.BitEnergy(0); e != m.ERbit {
		t.Fatalf("0-hop bit energy = %v, want one router %v", e, m.ERbit)
	}
	if e := m.BitEnergy(2); e != 3*m.ERbit+2*m.ELbit {
		t.Fatalf("2-hop bit energy = %v", e)
	}
}

func TestGraphValidate(t *testing.T) {
	g := &Graph{N: 2, Flows: []Flow{{Src: 0, Dst: 2}}}
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range dst must be rejected")
	}
	g2 := &Graph{N: 2, Flows: []Flow{{Src: 1, Dst: 1}}}
	if err := g2.Validate(); err == nil {
		t.Fatal("self flow must be rejected")
	}
}

// TestWalkLengthsEqualManhattan: both XY and YX routes have exactly
// dist() links, each between neighbouring tiles, from src to dst.
func TestWalkLengthsEqualManhattan(t *testing.T) {
	m := DefaultMesh()
	c := newBWChecker(m, &Graph{})
	f := func(a, b uint8) bool {
		src := int(a) % m.Tiles()
		dst := int(b) % m.Tiles()
		for _, r := range []Routing{XY, YX} {
			route := c.route(src, dst, r)
			if len(route) != m.dist(src, dst) {
				return false
			}
			cur := src
			for _, l := range route {
				from, to := l/m.Tiles(), l%m.Tiles()
				if from != cur || m.dist(from, to) != 1 {
					return false
				}
				cur = to
			}
			if cur != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRoutingFlexibilityExpandsFeasibility: construct two crossing flows
// that oversubscribe a link under XY-only routing but fit when one flow
// may take YX.
func TestRoutingFlexibilityExpandsFeasibility(t *testing.T) {
	m := Mesh{W: 3, H: 3, LinkBW: 100, ERbit: 0.3, ELbit: 0.45}
	// Tiles: 0 1 2 / 3 4 5 / 6 7 8.
	// Flow A: 0 -> 5 (XY: 0-1-2-5) and flow B: 0 -> 8 (XY: 0-1-2-5-8)
	// collide on links 0-1 and 1-2 under XY-only routing; B can fall
	// back to YX (0-3-6-7-8).
	g := &Graph{N: 9, Flows: []Flow{
		{Src: 0, Dst: 5, Volume: 1, BW: 60},
		{Src: 0, Dst: 8, Volume: 1, BW: 60},
	}}
	mapping := RowMajor(9)
	c := newBWChecker(m, g)
	if !c.check(mapping) {
		t.Fatal("routing flexibility should make this feasible")
	}
	if c.routing[0] == XY && c.routing[1] == XY {
		t.Fatal("both flows on XY cannot be feasible here")
	}
	// With XY-only (LinkBW too small for both), it must fail: emulate by
	// checking that both XY routes share link 0->1.
	shared := map[int]int{}
	for _, f := range g.Flows {
		for _, l := range c.route(mapping[f.Src], mapping[f.Dst], XY) {
			shared[l]++
		}
	}
	if shared[0*m.Tiles()+1] != 2 {
		t.Fatal("test premise broken: XY routes should share link 0->1")
	}
}

// TestBnBBeatsRowMajorOnMMS is the E10 headline: the mapper must cut
// communication energy substantially versus the ad-hoc mapping.
func TestBnBBeatsRowMajorOnMMS(t *testing.T) {
	m := DefaultMesh()
	g := MMSGraph()
	adhoc := m.CommEnergy(g, RowMajor(g.N))
	res, err := MapBnB(m, g, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	saving := 100 * float64(adhoc-res.Energy) / float64(adhoc)
	t.Logf("adhoc=%.0f bnb=%.0f saving=%.1f%% visited=%d", float64(adhoc), float64(res.Energy), saving, res.Visited)
	if saving < 25 {
		t.Errorf("BnB saving = %.1f%%, want >= 25%%", saving)
	}
	if !newBWChecker(m, g).check(res.Mapping) {
		t.Error("returned mapping must be bandwidth-feasible")
	}
	// Mapping must be a permutation of distinct tiles.
	seen := map[int]bool{}
	for _, tile := range res.Mapping {
		if tile < 0 || tile >= m.Tiles() || seen[tile] {
			t.Fatalf("invalid mapping %v", res.Mapping)
		}
		seen[tile] = true
	}
}

// TestBnBOptimalOnSmallPipeline: for a 4-stage pipeline on a 2x2 mesh the
// optimum is a Hamiltonian path (every hop distance 1).
func TestBnBOptimalOnSmallPipeline(t *testing.T) {
	m := Mesh{W: 2, H: 2, LinkBW: 1e9, ERbit: 0.3, ELbit: 0.45}
	g := pipelineGraph(4, 10)
	res, err := MapBnB(m, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal is a Hamiltonian path: all three flows at one hop.
	want := 3 * energyOf(g.Flows[0].Volume) * m.BitEnergy(1)
	if res.Energy != want {
		t.Fatalf("pipeline energy = %v, want %v (all 1-hop)", res.Energy, want)
	}
}

// TestBnBRejectsOversizedGraph and infeasible bandwidth.
func TestBnBErrors(t *testing.T) {
	m := Mesh{W: 2, H: 2, LinkBW: 1, ERbit: 0.3, ELbit: 0.45}
	g := pipelineGraph(5, 10)
	if _, err := MapBnB(m, g, 0); err == nil {
		t.Fatal("5 cores on 4 tiles must fail")
	}
	g2 := pipelineGraph(4, 10) // BW 10 > LinkBW 1: infeasible anywhere
	if _, err := MapBnB(m, g2, 0); err == nil {
		t.Fatal("infeasible bandwidth must fail")
	}
}

// TestBnBDeterministic: same inputs, same mapping.
func TestBnBDeterministic(t *testing.T) {
	m := DefaultMesh()
	g := MMSGraph()
	a, err := MapBnB(m, g, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapBnB(m, g, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			t.Fatalf("nondeterministic mapping at ip %d", i)
		}
	}
}

// TestMapBnBReportsCap: Capped says whether the search stopped at its
// node cap, not whether it used the whole budget. A budget one node short
// of a completed search's count caps it; the exact count does not.
func TestMapBnBReportsCap(t *testing.T) {
	m := DefaultMesh()
	g := MMSGraph()
	full, err := MapBnB(m, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Capped {
		t.Fatalf("a search that completes in %d nodes reports Capped", full.Visited)
	}
	exact, err := MapBnB(m, g, full.Visited)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Capped || exact.Visited != full.Visited {
		t.Fatalf("budget of exactly %d nodes: visited %d, capped %v", full.Visited, exact.Visited, exact.Capped)
	}
	short, err := MapBnB(m, g, full.Visited-1)
	if err != nil {
		t.Fatal(err)
	}
	if !short.Capped || short.Visited != full.Visited-1 {
		t.Fatalf("budget of %d nodes: visited %d, capped %v", full.Visited-1, short.Visited, short.Capped)
	}
}

// TestRandomGraphsNeverWorseThanAdhoc: property — whenever both are
// feasible, BnB's result is never worse than row-major.
func TestRandomGraphsNeverWorseThanAdhoc(t *testing.T) {
	m := Mesh{W: 3, H: 3, LinkBW: 1e6, ERbit: 0.3, ELbit: 0.45}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := &Graph{N: 8}
		for i := 0; i < 12; i++ {
			s := r.Intn(8)
			d := r.Intn(8)
			if s == d {
				continue
			}
			g.Flows = append(g.Flows, Flow{Src: s, Dst: d, Volume: float64(1 + r.Intn(100)), BW: 1})
		}
		if len(g.Flows) == 0 {
			continue
		}
		res, err := MapBnB(m, g, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if adhoc := m.CommEnergy(g, RowMajor(g.N)); res.Energy > adhoc {
			t.Errorf("seed %d: BnB %v worse than adhoc %v", seed, res.Energy, adhoc)
		}
	}
}

// energyOf adapts a float volume for energy arithmetic in tests.
func energyOf(v float64) energy.PJ { return energy.PJ(v) }

// pipelineGraph returns a simple n-stage streaming pipeline: core i sends
// to core i+1 at the given bandwidth.
func pipelineGraph(n int, bw float64) *Graph {
	g := &Graph{N: n}
	for i := 0; i < n-1; i++ {
		g.Flows = append(g.Flows, Flow{Src: i, Dst: i + 1, Volume: bw * 1e3, BW: bw})
	}
	return g
}
