package energy

import "testing"

// TestReadEnergyMonotone: bigger SRAMs must cost more per access, for any
// reasonable model.
func TestReadEnergyMonotone(t *testing.T) {
	m := DefaultMemoryModel()
	prev := PJ(0)
	for _, size := range []uint32{256, 1024, 4096, 16384, 65536, 1 << 20} {
		e := m.ReadEnergy(size)
		if e <= prev {
			t.Fatalf("read energy not monotone at %d: %v <= %v", size, e, prev)
		}
		w := m.WriteEnergy(size)
		if w <= e {
			t.Errorf("write should cost more than read at %d: %v <= %v", size, w, e)
		}
		prev = e
	}
}

func TestLeakageScales(t *testing.T) {
	m := DefaultMemoryModel()
	if m.Leakage(1024, 1000) >= m.Leakage(2048, 1000) {
		t.Error("leakage must grow with size")
	}
	if m.Leakage(1024, 1000) >= m.Leakage(1024, 2000) {
		t.Error("leakage must grow with time")
	}
	if m.Leakage(0, 1000) != 0 {
		t.Error("zero size leaks nothing")
	}
}

func TestSelectEnergy(t *testing.T) {
	m := DefaultMemoryModel()
	if m.SelectEnergy(1) != 0 {
		t.Error("monolithic memory has no select overhead")
	}
	if m.SelectEnergy(2) <= 0 {
		t.Error("2 banks need select energy")
	}
	if m.SelectEnergy(16) <= m.SelectEnergy(2) {
		t.Error("select energy must grow with bank count")
	}
}

func TestCacheModel(t *testing.T) {
	c := DefaultCacheModel()
	if c.ConventionalAccess(8) != 8*(c.TagE+c.DataE) {
		t.Fatal("conventional access energy wrong")
	}
	if c.DirectedAccess() >= c.ConventionalAccess(2) {
		t.Error("directed access should beat even a 2-way probe")
	}
}

func TestPJString(t *testing.T) {
	if got := PJ(1.5).String(); got != "1.500 pJ" {
		t.Fatalf("PJ string = %q", got)
	}
}

// TestZeroSizeExpDefaults: a MemoryModel built without SizeExp must not
// degenerate to a flat model.
func TestZeroSizeExpDefaults(t *testing.T) {
	m := MemoryModel{ReadE0: 1, KSize: 0.02}
	if m.ReadEnergy(1<<20) <= m.ReadEnergy(1<<10) {
		t.Fatal("zero SizeExp must fall back to a growing exponent")
	}
}
