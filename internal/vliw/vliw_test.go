package vliw

import (
	"testing"

	"lpmem/internal/isa"
	"lpmem/internal/testutil"
	"lpmem/internal/workloads"
)

// TestSameResultsAsScalar verifies the bundle model is a pure timing
// overlay: every kernel must produce the identical memory trace and pass
// its golden-model check when run under the VLIW engine.
func TestSameResultsAsScalar(t *testing.T) {
	for _, k := range workloads.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			inst := k.Build(1)
			scalar := testutil.MustRun(k.Build(1))
			res, err := Run(LxConfig(), inst.Prog, inst.Init, inst.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace.Len() != scalar.Trace.Len() {
				t.Fatalf("trace lengths differ: vliw=%d scalar=%d", res.Trace.Len(), scalar.Trace.Len())
			}
			for i := range res.Trace.Accesses {
				if res.Trace.Accesses[i] != scalar.Trace.Accesses[i] {
					t.Fatalf("access %d differs", i)
				}
			}
		})
	}
}

// TestVLIWFasterThanScalar: with 4 issue slots the bundle model must beat
// the sequential five-stage model on compute-heavy kernels.
func TestVLIWFasterThanScalar(t *testing.T) {
	for _, name := range []string{"fir", "matmul", "dct"} {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inst := k.Build(1)
		res, err := Run(LxConfig(), inst.Prog, inst.Init, inst.MaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles >= res.ScalarCycles {
			t.Errorf("%s: VLIW cycles %d >= scalar %d", name, res.Cycles, res.ScalarCycles)
		}
		// The greedy in-order model does not unroll or software-pipeline,
		// so serial address chains keep IPC below the machine width; it
		// must still clearly beat one op per cycle after stalls.
		if ipc := float64(res.Instructions) / float64(res.Cycles); ipc <= 0.6 {
			t.Errorf("%s: IPC = %.2f, want > 0.6", name, ipc)
		}
	}
}

// TestIssueWidthMonotonic: wider machines can only get faster.
func TestIssueWidthMonotonic(t *testing.T) {
	k, _ := workloads.ByName("fir")
	prev := uint64(1 << 62)
	for _, w := range []int{1, 2, 4, 8} {
		cfg := LxConfig()
		cfg.IssueWidth = w
		if w > 1 {
			cfg.MemPorts = 2
		}
		inst := k.Build(1)
		res, err := Run(cfg, inst.Prog, inst.Init, inst.MaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles > prev {
			t.Errorf("width %d: cycles %d > narrower machine %d", w, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestInvalidConfig rejects nonsense.
func TestInvalidConfig(t *testing.T) {
	b := isa.NewBuilder()
	b.Halt()
	p := b.MustAssemble()
	if _, err := Run(Config{}, p, nil, 10); err == nil {
		t.Fatal("zero config must be rejected")
	}
}
