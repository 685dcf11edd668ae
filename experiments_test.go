package lpmem

import (
	"testing"

	"lpmem/internal/trace"
)

// TestKernelTracesCoverSuite: the shared builder must return one trace per
// registered kernel, each non-empty.
func TestKernelTracesCoverSuite(t *testing.T) {
	apps, err := kernelTraces(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) < 15 {
		t.Fatalf("only %d kernel traces", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.name] {
			t.Fatalf("duplicate kernel %q", a.name)
		}
		seen[a.name] = true
		if a.trace.Len() == 0 || a.cycles == 0 {
			t.Fatalf("%s: empty trace or zero cycles", a.name)
		}
	}
}

// TestCompositeAppsMergeCleanly: composite apps built from the kernel
// traces must contain both data reads and writes, and a part missing
// from the kernel traces must be an error, not a shorter composite.
func TestCompositeAppsMergeCleanly(t *testing.T) {
	kernels, err := kernelTraces(1)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := compositeApps(kernels)
	if err != nil {
		t.Fatal(err)
	}
	var noFir []appTrace
	for _, k := range kernels {
		if k.name != "fir" {
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
		for _, a := range c.trace.Accesses {
			switch a.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			}
		}
		if reads == 0 || writes == 0 {
			t.Errorf("%s: missing data traffic (r=%d w=%d)", c.name, reads, writes)
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
		if a[i].name != b[i].name || a[i].trace.Len() != b[i].trace.Len() {
			t.Fatalf("profile %d differs", i)
		}
		for j := range a[i].trace.Accesses {
			if a[i].trace.Accesses[j] != b[i].trace.Accesses[j] {
				t.Fatalf("%s: access %d differs", a[i].name, j)
			}
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
