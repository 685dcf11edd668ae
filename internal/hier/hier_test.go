package hier

import (
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// mergeKernels runs several kernels and concatenates their traces,
// producing the phased, many-array application shape layer assignment is
// designed for.
func mergeKernels(t *testing.T, names ...string) (*trace.Trace, []Region) {
	t.Helper()
	merged := trace.New(1 << 16)
	var regions []Region
	for _, n := range names {
		k, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		inst := k.Build(1)
		res := testutil.MustRun(inst)
		for _, a := range res.Trace.Accesses {
			merged.Append(a)
		}
		for _, arr := range inst.Arrays {
			regions = append(regions, Region{Name: n + "." + arr.Name, Base: arr.Base, Size: arr.Size})
		}
	}
	return merged, regions
}

func TestProfileBasics(t *testing.T) {
	tr := trace.New(4)
	tr.Append(trace.Access{Addr: 0x100, Kind: trace.Read, Width: 4})
	tr.Append(trace.Access{Addr: 0x200, Kind: trace.Write, Width: 4})
	tr.Append(trace.Access{Addr: 0x104, Kind: trace.Read, Width: 4})
	regions := []Region{
		{Name: "a", Base: 0x100, Size: 0x10},
		{Name: "b", Base: 0x200, Size: 0x10},
		{Name: "untouched", Base: 0x300, Size: 0x10},
	}
	infos := Profile(tr, regions)
	if len(infos) != 2 {
		t.Fatalf("profiled %d arrays, want 2 (untouched dropped)", len(infos))
	}
	if infos[0].Name != "a" || infos[0].Reads != 2 || infos[0].First != 0 || infos[0].Last != 2 {
		t.Fatalf("array a profile wrong: %+v", infos[0])
	}
	if infos[1].Writes != 1 || infos[1].First != 1 || infos[1].Last != 1 {
		t.Fatalf("array b profile wrong: %+v", infos[1])
	}
}

func TestAssignRequiresUnboundedLastLayer(t *testing.T) {
	layers := []Layer{{Name: "only", Capacity: 128}}
	if _, err := Assign(nil, layers, true); err == nil {
		t.Fatal("bounded last layer must be rejected")
	}
}

// TestDisjointLifetimesShareScratch: two arrays that each fill the
// scratchpad but live in different phases must BOTH land in the
// scratchpad when lifetime analysis is on, and cannot when it is off.
func TestDisjointLifetimesShareScratch(t *testing.T) {
	infos := []ArrayInfo{
		{Name: "early", Size: 2048, Reads: 1000, First: 0, Last: 99},
		{Name: "late", Size: 2048, Reads: 1000, First: 100, Last: 199},
	}
	layers := DefaultLayers(energy.DefaultMemoryModel())
	withLT, err := Assign(infos, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	if withLT.Layer["early"] != 0 || withLT.Layer["late"] != 0 {
		t.Fatalf("lifetime-aware: both arrays should share L1, got %v", withLT.Layer)
	}
	noLT, err := Assign(infos, layers, false)
	if err != nil {
		t.Fatal(err)
	}
	if noLT.Layer["early"] == 0 && noLT.Layer["late"] == 0 {
		t.Fatalf("static: both arrays cannot fit L1 together, got %v", noLT.Layer)
	}
}

// TestOverlappingLifetimesDoNotShare: concurrent arrays must not
// oversubscribe the scratchpad even with lifetime analysis on.
func TestOverlappingLifetimesDoNotShare(t *testing.T) {
	infos := []ArrayInfo{
		{Name: "x", Size: 2048, Reads: 1000, First: 0, Last: 150},
		{Name: "y", Size: 2048, Reads: 900, First: 100, Last: 199},
	}
	layers := DefaultLayers(energy.DefaultMemoryModel())
	asg, err := Assign(infos, layers, true)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Layer["x"] == 0 && asg.Layer["y"] == 0 {
		t.Fatal("overlapping arrays must not both occupy the full scratchpad")
	}
}

// TestEvaluateOrdering: on a phased multi-kernel app, lifetime-aware
// assignment must be at least as good as static, which must beat
// everything-off-chip.
func TestEvaluateOrdering(t *testing.T) {
	tr, regions := mergeKernels(t, "fir", "dct", "adpcm", "histogram")
	infos := Profile(tr, regions)
	layers := DefaultLayers(energy.DefaultMemoryModel())
	off, static, lifetime, err := Evaluate(infos, layers)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("offchip=%.0f static=%.0f lifetime=%.0f (lifetime/static = %.2f)",
		float64(off), float64(static), float64(lifetime), float64(lifetime)/float64(static))
	if static >= off {
		t.Errorf("static assignment should beat off-chip: %v >= %v", static, off)
	}
	if lifetime > static {
		t.Errorf("lifetime-aware must not be worse than static: %v > %v", lifetime, static)
	}
}
