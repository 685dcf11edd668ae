package cachedesign

import (
	"testing"

	"lpmem/internal/testutil"
	"lpmem/internal/workloads"
)

func explorerFor(t *testing.T, kernel string) *Explorer {
	t.Helper()
	k, err := workloads.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	res := testutil.MustRun(k.Build(1))
	return NewExplorer(res.Trace)
}

func TestExhaustiveFindsSmallest(t *testing.T) {
	e := explorerFor(t, "matmul")
	space := DefaultSpace()
	best, err := e.Exhaustive(space, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if best.MissRate > 0.05 {
		t.Fatalf("returned config misses target: %.4f", best.MissRate)
	}
	t.Logf("exhaustive: %d sets x %d ways (%d B), mr=%.4f, %d sims",
		best.Config.Sets, best.Config.Ways, best.SizeBytes(), best.MissRate, e.Simulations)
}

// TestDirectMeetsTargetWithFarFewerSims is the E19 headline.
func TestDirectMeetsTargetWithFarFewerSims(t *testing.T) {
	for _, bench := range []struct {
		kernel string
		target float64 // listchase has a high capacity-miss floor
	}{{"matmul", 0.03}, {"listchase", 0.15}, {"histogram", 0.03}} {
		kernel := bench.kernel
		e := explorerFor(t, kernel)
		space := DefaultSpace()
		exBest, err := e.Exhaustive(space, bench.target)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		exSims := e.Simulations

		e.Reset()
		dirBest, err := e.Direct(space, bench.target)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		dirSims := e.Simulations
		t.Logf("%-10s exhaustive: %5dB in %d sims | direct: %5dB in %d sims",
			kernel, exBest.SizeBytes(), exSims, dirBest.SizeBytes(), dirSims)
		if dirBest.MissRate > bench.target {
			t.Errorf("%s: direct result misses target", kernel)
		}
		if dirSims*2 > exSims {
			t.Errorf("%s: direct used %d sims, want < half of exhaustive's %d", kernel, dirSims, exSims)
		}
		// Miss-rate monotonicity in sets is not perfectly guaranteed, so
		// allow the direct result to be at most 2x the true optimum.
		if dirBest.SizeBytes() > 2*exBest.SizeBytes() {
			t.Errorf("%s: direct config %dB far above optimum %dB",
				kernel, dirBest.SizeBytes(), exBest.SizeBytes())
		}
	}
}

func TestImpossibleTarget(t *testing.T) {
	e := explorerFor(t, "listchase")
	space := Space{MinSets: 2, MaxSets: 4, Ways: []int{1}, LineSize: 16}
	if _, err := e.Exhaustive(space, 0.000001); err == nil {
		t.Fatal("impossible target must error (exhaustive)")
	}
	if _, err := e.Direct(space, 0.000001); err == nil {
		t.Fatal("impossible target must error (direct)")
	}
}
