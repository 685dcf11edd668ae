package energy_test

import (
	"math/rand"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/testutil"
)

// TestMemoryModelMonotoneProperty checks the invariant every experiment
// leans on (DESIGN.md "Substitutions"): under any admissible model, a
// bigger SRAM never costs less per access, leaks at least as much, and
// all energies stay non-negative. Models are randomized around the
// default with the same perturbation the chaos corruptor uses, so the
// property covers the whole family, not one calibration.
func TestMemoryModelMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		m := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		// Random size pair with small <= big, spanning 1B..1GiB.
		e1 := r.Intn(24)
		e2 := e1 + r.Intn(31-e1)
		small := uint32(1) << e1
		big := uint32(1) << e2
		if m.ReadEnergy(small) > m.ReadEnergy(big) {
			t.Fatalf("trial %d: read energy not monotone: %v @%dB > %v @%dB (model %+v)",
				trial, m.ReadEnergy(small), small, m.ReadEnergy(big), big, m)
		}
		if m.WriteEnergy(small) > m.WriteEnergy(big) {
			t.Fatalf("trial %d: write energy not monotone: %v @%dB > %v @%dB (model %+v)",
				trial, m.WriteEnergy(small), small, m.WriteEnergy(big), big, m)
		}
		cycles := uint64(r.Intn(1 << 20))
		if m.Leakage(small, cycles) > m.Leakage(big, cycles) {
			t.Fatalf("trial %d: leakage not monotone in size (model %+v)", trial, m)
		}
		if m.Leakage(big, cycles) > m.Leakage(big, cycles+1+uint64(r.Intn(1000))) {
			t.Fatalf("trial %d: leakage not monotone in cycles (model %+v)", trial, m)
		}
		for _, e := range []energy.PJ{
			m.ReadEnergy(small), m.WriteEnergy(small), m.Leakage(small, cycles), m.SelectEnergy(1 + r.Intn(16)),
		} {
			if e < 0 {
				t.Fatalf("trial %d: negative energy %v (model %+v)", trial, e, m)
			}
		}
	}
}

// TestSelectEnergyMonotoneInBanks: decoding into more banks never gets
// cheaper, and a monolithic memory pays nothing.
func TestSelectEnergyMonotoneInBanks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		if got := m.SelectEnergy(1); got != 0 {
			t.Fatalf("monolithic select energy %v, want 0", got)
		}
		prev := energy.PJ(0)
		for banks := 1; banks <= 64; banks *= 2 {
			e := m.SelectEnergy(banks)
			if e < prev {
				t.Fatalf("trial %d: select energy fell from %v to %v at %d banks", trial, prev, e, banks)
			}
			prev = e
		}
	}
}
