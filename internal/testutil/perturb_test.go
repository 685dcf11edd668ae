package testutil

import (
	"math/rand"
	"testing"

	"lpmem/internal/energy"
)

// TestPerturbModelMonotone: perturbed models keep positive parameters, so
// energies stay positive and size-monotone.
func TestPerturbModelMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		m := PerturbModel(energy.DefaultMemoryModel(), r)
		prev := energy.PJ(-1)
		for _, size := range []uint32{64, 256, 1024, 65536} {
			e := m.ReadEnergy(size)
			if e <= 0 || e < prev {
				t.Fatalf("iter %d: ReadEnergy(%d) = %v not monotone positive", i, size, e)
			}
			prev = e
		}
	}
}
