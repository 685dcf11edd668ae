package waycache

import (
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

func TestWDUBasics(t *testing.T) {
	w, err := NewWDU(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Lookup(0x100); ok {
		t.Fatal("empty WDU must miss")
	}
	w.Record(0x100, 3)
	if way, ok := w.Lookup(0x100); !ok || way != 3 {
		t.Fatalf("lookup = (%d,%v), want (3,true)", way, ok)
	}
	// Fill beyond capacity: LRU (0x200) must go.
	w.Record(0x200, 1)
	w.Lookup(0x100) // touch 0x100 so 0x200 is LRU
	w.Record(0x300, 2)
	if _, ok := w.Lookup(0x200); ok {
		t.Fatal("0x200 should have been LRU-evicted from the WDU")
	}
	if _, ok := w.Lookup(0x100); !ok {
		t.Fatal("0x100 should survive")
	}
	w.Invalidate(0x100)
	if _, ok := w.Lookup(0x100); ok {
		t.Fatal("invalidated entry must miss")
	}
}

func TestNewWDURejectsBadCapacity(t *testing.T) {
	if _, err := NewWDU(0); err == nil {
		t.Fatal("capacity 0 must be rejected")
	}
}

// TestDeterminationIsAlwaysCorrect: on every WDU hit, the recorded way
// must be the way the cache actually holds the line in. This is the
// "determination, not prediction" property of the paper.
func TestDeterminationIsAlwaysCorrect(t *testing.T) {
	for _, name := range []string{"histogram", "listchase", "sort"} {
		k, _ := workloads.ByName(name)
		res := testutil.MustRun(k.Build(1))
		cfg := cache.Config{Sets: 8, Ways: 8, LineSize: 32, WriteBack: true, WriteAllocate: true}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wdu, _ := NewWDU(16)
		lineMask := ^(uint32(cfg.LineSize) - 1)
		for _, a := range res.Trace.Accesses {
			if a.Kind == trace.Fetch {
				continue
			}
			lineBase := a.Addr & lineMask
			way, known := wdu.Lookup(lineBase)
			r := c.Access(a.Addr, a.Kind == trace.Write)
			if known && r.Hit && r.Way != way {
				t.Fatalf("%s: WDU says way %d but line is in way %d", name, way, r.Way)
			}
			if !r.Hit {
				if r.Evicted {
					wdu.Invalidate(r.EvictedAddr)
				}
				wdu.Record(lineBase, r.Way)
			} else if !known {
				wdu.Record(lineBase, r.Way)
			}
		}
	}
}

// TestSavingGrowsWithAssociativity reproduces the shape of the paper's
// table: power reduction increases with the number of ways.
func TestSavingGrowsWithAssociativity(t *testing.T) {
	k, _ := workloads.ByName("fir")
	res := testutil.MustRun(k.Build(1))
	cm := energy.DefaultCacheModel()
	prev := 0.0
	for _, ways := range []int{8, 16, 32} {
		cfg := cache.Config{Sets: 16, Ways: ways, LineSize: 32, WriteBack: true, WriteAllocate: true}
		r, err := Simulate(res.Trace, cfg, 16, cm)
		if err != nil {
			t.Fatal(err)
		}
		s := r.Saving()
		t.Logf("ways=%2d coverage=%.3f saving=%.1f%%", ways, r.Coverage, s)
		if s <= prev {
			t.Errorf("saving did not grow with ways: %d-way %.1f%% <= %.1f%%", ways, s, prev)
		}
		if s < 40 {
			t.Errorf("%d-way saving %.1f%% implausibly low", ways, s)
		}
		prev = s
	}
}
