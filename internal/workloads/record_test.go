package workloads

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"sync"
	"testing"

	"lpmem/internal/isa"
	"lpmem/internal/trace"
)

// digest hashes a trace's binary encoding.
func digest(t *testing.T, tr *trace.Trace) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := tr.WriteBinary(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// recordDirect interprets inst into a trace of its own, without
// RunTraced's recording buffer.
func recordDirect(t *testing.T, inst *Instance) *trace.Trace {
	t.Helper()
	cpu := isa.NewCPU(inst.Prog)
	if inst.Init != nil {
		inst.Init(cpu)
	}
	cpu.Trace = trace.New(0)
	if err := cpu.Run(inst.MaxSteps); err != nil {
		t.Fatal(err)
	}
	return cpu.Trace
}

// TestRunTracedExactLength: every kernel's trace is copied out of the
// recording buffer at its exact length, and holds what a direct
// recording does.
func TestRunTracedExactLength(t *testing.T) {
	for _, k := range All() {
		got := run(t, k.Build(1)).Trace
		if n, c := len(got.Accesses), cap(got.Accesses); n != c {
			t.Errorf("%s: len %d, cap %d", k.Name, n, c)
		}
		if !reflect.DeepEqual(got, recordDirect(t, k.Build(1))) {
			t.Errorf("%s: trace differs from a direct recording", k.Name)
		}
	}
}

// TestRunTracedTraceOutlivesLaterRuns: interpreting two more kernels,
// one of them larger, leaves an earlier run's trace byte-identical, so
// no returned trace shares memory with the recording buffer.
func TestRunTracedTraceOutlivesLaterRuns(t *testing.T) {
	first := run(t, HashLookup(1)).Trace
	before := digest(t, first)
	larger := run(t, ListChase(1)).Trace
	if larger.Len() <= first.Len() {
		t.Fatalf("listchase (%d accesses) is not larger than hashlookup (%d)", larger.Len(), first.Len())
	}
	run(t, CRC32(1))
	if digest(t, first) != before {
		t.Fatal("a later run changed an earlier run's trace")
	}
}

// TestRunTracedLeavesCPUOnResult: after RunTraced, the CPU's Trace is
// the returned trace, never the recording buffer.
func TestRunTracedLeavesCPUOnResult(t *testing.T) {
	inst := FIR(1)
	cpu := isa.NewCPU(inst.Prog)
	inst.Init(cpu)
	tr, err := cpu.RunTraced(inst.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Trace != tr {
		t.Fatal("cpu.Trace is not the returned trace")
	}
}

// TestRunTracedAfterRunaway: a run cut off by its step budget fails with
// ErrRunaway and leaves no trace, and the next run's trace holds none of
// its accesses.
func TestRunTracedAfterRunaway(t *testing.T) {
	inst := FIR(1)
	cpu := isa.NewCPU(inst.Prog)
	inst.Init(cpu)
	tr, err := cpu.RunTraced(1000)
	if !errors.Is(err, isa.ErrRunaway) {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
	if tr != nil || cpu.Trace != nil {
		t.Fatal("a failed run left a trace")
	}
	got := run(t, FIR(1)).Trace
	if digest(t, got) != digest(t, recordDirect(t, FIR(1))) {
		t.Fatal("the run after a runaway recorded a different trace")
	}
}

// TestTracesConcurrent: two goroutines interpreting every kernel at once
// get the traces of one sequential Traces call. Under -race this also
// shows that concurrent runs share no recording buffer.
func TestTracesConcurrent(t *testing.T) {
	want, err := Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]*Result, 2)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = Traces(1)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want {
			if !reflect.DeepEqual(got[g][i].Trace, want[i].Trace) {
				t.Errorf("goroutine %d: %s trace differs from the sequential run", g, want[i].Name)
			}
		}
	}
}
