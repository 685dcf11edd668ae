package workloads

import (
	"testing"

	"lpmem/internal/trace"
)

// TestAllKernelsRunAndVerify executes every kernel with several seeds and
// requires its checker (golden-model comparison) to pass.
func TestAllKernelsRunAndVerify(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 42} {
				inst := k.Build(seed)
				res, err := Run(inst)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Trace.Len() == 0 {
					t.Fatalf("seed %d: empty trace", seed)
				}
				if res.Cycles == 0 {
					t.Fatalf("seed %d: zero cycles", seed)
				}
			}
		})
	}
}

// TestKernelsAreDeterministic ensures the same seed yields the identical
// trace, which the experiments depend on for reproducibility.
func TestKernelsAreDeterministic(t *testing.T) {
	for _, k := range All() {
		a := run(t, k.Build(7)).Trace
		b := run(t, k.Build(7)).Trace
		if a.Len() != b.Len() {
			t.Fatalf("%s: trace lengths differ: %d vs %d", k.Name, a.Len(), b.Len())
		}
		for i := range a.Accesses {
			if a.Accesses[i] != b.Accesses[i] {
				t.Fatalf("%s: access %d differs: %+v vs %+v", k.Name, i, a.Accesses[i], b.Accesses[i])
			}
		}
	}
}

// TestKernelsEmitDataAccesses verifies that every kernel produces both data
// reads and writes, which all downstream experiments assume.
func TestKernelsEmitDataAccesses(t *testing.T) {
	for _, k := range All() {
		res := run(t, k.Build(1))
		var reads, writes, fetches int
		for _, a := range res.Trace.Accesses {
			switch a.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			case trace.Fetch:
				fetches++
			}
		}
		if reads == 0 && k.Name != "fibcall" {
			t.Errorf("%s: no data reads", k.Name)
		}
		if writes == 0 {
			t.Errorf("%s: no data writes", k.Name)
		}
		if fetches == 0 {
			t.Errorf("%s: no fetches", k.Name)
		}
	}
}

// TestByName checks the registry lookup.
func TestByName(t *testing.T) {
	if _, err := ByName("fir"); err != nil {
		t.Fatalf("fir should exist: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}

// TestArraysCoverDataAccesses checks that declared array regions cover the
// vast majority of non-stack data accesses of each kernel: the metadata
// must be trustworthy for partitioning experiments.
func TestArraysCoverDataAccesses(t *testing.T) {
	for _, k := range All() {
		inst := k.Build(3)
		res := run(t, inst)
		covered, total := 0, 0
		for _, a := range res.Trace.Accesses {
			if a.Kind == trace.Fetch {
				continue
			}
			total++
			for _, arr := range inst.Arrays {
				if a.Addr >= arr.Base && a.Addr < arr.Base+arr.Size {
					covered++
					break
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: no data accesses", k.Name)
		}
		if frac := float64(covered) / float64(total); frac < 0.99 {
			t.Errorf("%s: only %.1f%% of data accesses covered by declared arrays", k.Name, 100*frac)
		}
	}
}

// run is Run for tests: a kernel that fails its own check fails the
// test. (testutil.MustRun cannot serve here: testutil imports this
// package.)
func run(t *testing.T, inst *Instance) *Result {
	t.Helper()
	res, err := Run(inst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
