package imem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

func TestFieldOps(t *testing.T) {
	f := Field{Shift: 26, Width: 6}
	w := uint32(0xFFFFFFFF)
	if got := f.Extract(w); got != 63 {
		t.Fatalf("extract = %d, want 63", got)
	}
	w2 := f.Insert(w, 0)
	if got := f.Extract(w2); got != 0 {
		t.Fatalf("after insert, extract = %d, want 0", got)
	}
	if w2&^f.Mask() != w&^f.Mask() {
		t.Fatal("insert must not disturb other bits")
	}
}

// TestEncodeDecodeBijective: Decode(Encode(w)) == w for any word and any
// training stream.
func TestEncodeDecodeBijective(t *testing.T) {
	f := func(seed int64, words []uint32) bool {
		r := rand.New(rand.NewSource(seed))
		train := make([]uint32, 100)
		for i := range train {
			train[i] = r.Uint32()
		}
		e, err := Train(train, MuRISCFields())
		if err != nil {
			return false
		}
		for _, w := range words {
			if e.Decode(e.Encode(w)) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRejectsBadFields(t *testing.T) {
	if _, err := Train([]uint32{1}, nil); err == nil {
		t.Error("empty fields must error")
	}
	for _, w := range []uint{0, 9, 16, 20} {
		if _, err := Train([]uint32{1}, []Field{{Shift: 0, Width: w}}); err == nil {
			t.Errorf("width %d must error", w)
		}
	}
	if _, err := Train([]uint32{1}, []Field{{Shift: 24, Width: 8}}); err != nil {
		t.Errorf("width 8 must be accepted: %v", err)
	}
}

func TestTransitions(t *testing.T) {
	if got := Transitions([]uint32{0, 1, 3, 3}); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
	if got := Transitions(nil); got != 0 {
		t.Fatalf("transitions of empty = %d", got)
	}
}

// TestReducesTransitionsOnKernels: on every workload's real fetch stream,
// the trained transformation must reduce bus transitions.
func TestReducesTransitionsOnKernels(t *testing.T) {
	for _, k := range workloads.All() {
		res := testutil.MustRun(k.Build(1))
		stream := fetchStream(res.Trace)
		base, xf, err := Evaluate(stream, stream, MuRISCFields())
		if err != nil {
			t.Fatal(err)
		}
		if base == 0 {
			t.Fatalf("%s: no transitions in fetch stream", k.Name)
		}
		saving := 100 * float64(base-xf) / float64(base)
		t.Logf("%-10s base=%9d xf=%9d saving=%5.1f%%", k.Name, base, xf, saving)
		if xf > base {
			t.Errorf("%s: transformation increased transitions (%d > %d)", k.Name, xf, base)
		}
	}
}

func fetchStream(tr *trace.Trace) []uint32 {
	var out []uint32
	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			out = append(out, a.Value)
		}
	}
	return out
}
