package stackmem

import (
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/isa"
	"lpmem/internal/testutil"
	"lpmem/internal/workloads"
)

func defaultConfig() Config {
	return Config{
		StackLo:   isa.DefaultStackTop - isa.DefaultStackSize,
		StackHi:   isa.DefaultStackTop + 16,
		StackSRAM: 2048,
		Cache:     cache.Config{Sets: 64, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true},
	}
}

func TestRejectsEmptyRegion(t *testing.T) {
	cfg := defaultConfig()
	cfg.StackHi = cfg.StackLo
	k, _ := workloads.ByName("fibcall")
	res := testutil.MustRun(k.Build(1))
	if _, err := Simulate(res.Trace, cfg, energy.DefaultCacheModel(), energy.DefaultMemoryModel()); err == nil {
		t.Fatal("empty stack region must be rejected")
	}
}

// TestCallHeavyKernelSavesBig: fibcall's traffic is dominated by stack
// pushes/pops, so the cache-energy reduction must be large, in the spirit
// of the paper's 32.5% best case.
func TestCallHeavyKernelSavesBig(t *testing.T) {
	k, _ := workloads.ByName("fibcall")
	res := testutil.MustRun(k.Build(1))
	r, err := Simulate(res.Trace, defaultConfig(), energy.DefaultCacheModel(), energy.DefaultMemoryModel())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stackFrac=%.2f cacheSaving=%.1f%% totalSaving=%.1f%% misses %d->%d",
		r.StackFraction, r.CacheSaving(), r.TotalSaving(), r.BaseMisses, r.SplitMisses)
	if r.StackFraction < 0.5 {
		t.Errorf("fibcall stack fraction = %.2f, want > 0.5", r.StackFraction)
	}
	if r.CacheSaving() < 30 {
		t.Errorf("cache saving = %.1f%%, want >= 30%% on call-heavy code", r.CacheSaving())
	}
	if r.TotalSaving() <= 0 {
		t.Errorf("net saving must be positive, got %.1f%%", r.TotalSaving())
	}
}

// TestSplitNeverIncreasesMisses: removing stack traffic can only reduce
// cache pressure.
func TestSplitNeverIncreasesMisses(t *testing.T) {
	for _, k := range workloads.All() {
		res := testutil.MustRun(k.Build(1))
		r, err := Simulate(res.Trace, defaultConfig(), energy.DefaultCacheModel(), energy.DefaultMemoryModel())
		if err != nil {
			t.Fatal(err)
		}
		if r.SplitMisses > r.BaseMisses {
			t.Errorf("%s: split misses %d > base %d", k.Name, r.SplitMisses, r.BaseMisses)
		}
		if r.CacheSaving() < 0 {
			t.Errorf("%s: negative cache saving %.1f%%", k.Name, r.CacheSaving())
		}
	}
}

// TestCacheSavingTracksStackFraction: by construction, the D-cache energy
// reduction equals the stack fraction of accesses (probe energy is
// per-access uniform).
func TestCacheSavingTracksStackFraction(t *testing.T) {
	k, _ := workloads.ByName("fibcall")
	res := testutil.MustRun(k.Build(1))
	r, err := Simulate(res.Trace, defaultConfig(), energy.DefaultCacheModel(), energy.DefaultMemoryModel())
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * r.StackFraction
	if got := r.CacheSaving(); got < want-0.5 || got > want+0.5 {
		t.Errorf("cache saving %.2f%% should equal stack fraction %.2f%%", got, want)
	}
}
