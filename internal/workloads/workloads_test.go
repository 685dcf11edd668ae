package workloads

import (
	"reflect"
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

// TestTracesKeepsRequestOrder: Traces returns one result per requested
// name, in request order, each equal to a direct Run at the same seed
// and carrying its kernel's name and arrays; a repeated name returns the
// same *Result, interpreted once.
func TestTracesKeepsRequestOrder(t *testing.T) {
	names := []string{"dct", "fir", "dct", "crc32"}
	got, err := Traces(5, names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("%d results for %d names", len(got), len(names))
	}
	if got[0] != got[2] {
		t.Error("repeated name returned two results")
	}
	if got[0] == got[1] || got[1] == got[3] {
		t.Error("distinct names share a result")
	}
	for i, name := range names {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := k.Build(5)
		want := run(t, inst)
		if got[i].Name != name || !reflect.DeepEqual(got[i].Arrays, inst.Arrays) {
			t.Errorf("result %d: name %q arrays %+v, want %q %+v", i, got[i].Name, got[i].Arrays, name, inst.Arrays)
		}
		if got[i].Cycles != want.Cycles || got[i].Retired != want.Retired ||
			!reflect.DeepEqual(got[i].Trace, want.Trace) {
			t.Errorf("result %d (%s) differs from a direct run at the same seed", i, name)
		}
	}
}

// TestTracesDefaultsToAll: with no names, Traces runs every kernel once,
// in All order.
func TestTracesDefaultsToAll(t *testing.T) {
	got, err := Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	all := All()
	if len(got) != len(all) {
		t.Fatalf("%d results for %d kernels", len(got), len(all))
	}
	seen := make(map[*Result]bool, len(got))
	for i, k := range all {
		if got[i].Name != k.Name {
			t.Errorf("result %d is %q, want %q", i, got[i].Name, k.Name)
		}
		if seen[got[i]] {
			t.Errorf("result %d repeats an earlier one", i)
		}
		seen[got[i]] = true
	}
}

// TestTracesUnknownName: an unknown kernel fails the whole call with
// ByName's error rather than returning a shorter list.
func TestTracesUnknownName(t *testing.T) {
	got, err := Traces(1, "fir", "nope")
	if err == nil {
		t.Fatalf("no error; got %d results", len(got))
	}
	_, want := ByName("nope")
	if err.Error() != want.Error() {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestAppendConcatenates: Append runs the parts back to back — traces
// concatenated in order, cycles and retired counts summed, each part's
// arrays prefixed with its kernel's name — into a trace of its own,
// leaving the parts as they were.
func TestAppendConcatenates(t *testing.T) {
	// a's trace has spare capacity, so a build that appended into a
	// part's own slice would show below.
	aTrace := trace.New(16)
	aTrace.Append(trace.Access{Addr: 1, Kind: trace.Read})
	aTrace.Append(trace.Access{Addr: 2, Kind: trace.Write})
	a := &Result{
		Name:    "a",
		Trace:   aTrace,
		Cycles:  10,
		Retired: 4,
		Arrays:  []Array{{Name: "x", Base: 0, Size: 8}},
	}
	b := &Result{
		Name:    "b",
		Trace:   &trace.Trace{Accesses: []trace.Access{{Addr: 3, Kind: trace.Fetch}}},
		Cycles:  5,
		Retired: 2,
		Arrays:  []Array{{Name: "x", Base: 64, Size: 4}, {Name: "y", Base: 128, Size: 16}},
	}
	aBefore := append([]trace.Access(nil), a.Trace.Accesses...)
	app := Result{Name: "app"}
	app.Append(a, b)
	app.Append(a)

	wantTrace := []trace.Access{
		{Addr: 1, Kind: trace.Read}, {Addr: 2, Kind: trace.Write},
		{Addr: 3, Kind: trace.Fetch},
		{Addr: 1, Kind: trace.Read}, {Addr: 2, Kind: trace.Write},
	}
	if !reflect.DeepEqual(app.Trace.Accesses, wantTrace) {
		t.Errorf("trace %+v, want %+v", app.Trace.Accesses, wantTrace)
	}
	if app.Cycles != 25 || app.Retired != 10 {
		t.Errorf("cycles %d retired %d, want 25 and 10", app.Cycles, app.Retired)
	}
	wantArrays := []Array{
		{Name: "a.x", Base: 0, Size: 8},
		{Name: "b.x", Base: 64, Size: 4},
		{Name: "b.y", Base: 128, Size: 16},
		{Name: "a.x", Base: 0, Size: 8},
	}
	if !reflect.DeepEqual(app.Arrays, wantArrays) {
		t.Errorf("arrays %+v, want %+v", app.Arrays, wantArrays)
	}
	if app.Name != "app" {
		t.Errorf("name %q, want app", app.Name)
	}
	app.Trace.Accesses[0].Addr = 99
	if !reflect.DeepEqual(a.Trace.Accesses, aBefore) || a.Arrays[0].Name != "x" || a.Cycles != 10 {
		t.Error("Append modified or aliased a part")
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
