package lpmem

import (
	"testing"

	"lpmem/internal/noc"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// TestKernelTracesCoverSuite: the kernel traces every suite-wide
// experiment reads must be one per registered kernel, in registry order,
// each named and non-empty.
func TestKernelTracesCoverSuite(t *testing.T) {
	apps, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	kernels := workloads.All()
	if len(apps) != len(kernels) || len(apps) < 15 {
		t.Fatalf("%d kernel traces for %d kernels", len(apps), len(kernels))
	}
	seen := map[string]bool{}
	for i, a := range apps {
		if a.Name != kernels[i].Name {
			t.Fatalf("trace %d is %q, want %q", i, a.Name, kernels[i].Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate kernel %q", a.Name)
		}
		seen[a.Name] = true
		if a.Trace.Len() == 0 || a.Cycles == 0 {
			t.Fatalf("%s: empty trace or zero cycles", a.Name)
		}
	}
}

// TestCompositeAppsMergeCleanly: composite apps built from the kernel
// traces must contain both data reads and writes, and a part missing
// from the kernel traces must be an error, not a shorter composite.
func TestCompositeAppsMergeCleanly(t *testing.T) {
	kernels, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := compositeApps(kernels)
	if err != nil {
		t.Fatal(err)
	}
	var noFir []*workloads.Result
	for _, k := range kernels {
		if k.Name != "fir" {
			noFir = append(noFir, k)
		}
	}
	if _, err := compositeApps(noFir); err == nil {
		t.Error("composite with a missing part did not error")
	}
	if len(comps) < 4 {
		t.Fatalf("want >= 4 composite apps, got %d", len(comps))
	}
	for _, c := range comps {
		var reads, writes int
		for _, a := range c.Trace.Accesses {
			switch a.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			}
		}
		if reads == 0 || writes == 0 {
			t.Errorf("%s: missing data traffic (r=%d w=%d)", c.Name, reads, writes)
		}
	}
}

// TestProfileAppsDeterministic: the synthetic profiles must be identical
// across calls (the experiments depend on it).
func TestProfileAppsDeterministic(t *testing.T) {
	a := profileApps()
	b := profileApps()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Trace.Len() != b[i].Trace.Len() {
			t.Fatalf("profile %d differs", i)
		}
		for j := range a[i].Trace.Accesses {
			if a[i].Trace.Accesses[j] != b[i].Trace.Accesses[j] {
				t.Fatalf("%s: access %d differs", a[i].Name, j)
			}
		}
	}
}

// TestE10RowsAreProved: every E10 search completes under the table's
// node cap, so each "bnb E" cell is a proved minimum, not the best
// mapping a capped search happened to reach.
func TestE10RowsAreProved(t *testing.T) {
	g := noc.MMSGraph()
	for _, bw := range e10LinkBWs {
		m := noc.DefaultMesh()
		m.LinkBW = bw
		res, err := noc.MapBnB(m, g, e10MaxNodes)
		if err != nil {
			t.Fatalf("link BW %v: %v", bw, err)
		}
		if res.Capped {
			t.Fatalf("link BW %v: the search stopped at its %d-node cap", bw, e10MaxNodes)
		}
	}
}

// TestRegistryComplete: IDs are unique, contiguous E1..E26, and all
// runnable functions are set.
func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 26 {
		t.Fatalf("registry has %d experiments, want 26", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" || e.PaperClaim == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}
