package partition_test

import (
	"math/rand"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/partition"
	"lpmem/internal/testutil"
)

// randomSpec builds a random but well-formed partitioning problem:
// skewed access counts (a few hot blocks, a cold tail) over a random
// power-of-two block size, mirroring what SpecFromTrace produces.
func randomSpec(r *rand.Rand) *partition.Spec {
	n := 1 + r.Intn(24)
	spec := &partition.Spec{
		BlockSize: uint32(64) << r.Intn(6),
		Blocks:    make([]partition.BlockStats, n),
		Cycles:    uint64(r.Intn(1 << 16)),
	}
	for i := range spec.Blocks {
		if r.Intn(4) == 0 { // hot block
			spec.Blocks[i] = partition.BlockStats{
				Reads:  uint64(r.Intn(100000)),
				Writes: uint64(r.Intn(20000)),
			}
		} else {
			spec.Blocks[i] = partition.BlockStats{
				Reads:  uint64(r.Intn(200)),
				Writes: uint64(r.Intn(50)),
			}
		}
	}
	return spec
}

// TestOptimalNeverWorseThanMonolithic is the core optimizer property:
// for any spec, bank budget and admissible model, the DP's energy never
// exceeds the single-bank baseline (which is always a feasible split),
// and equals it exactly when the budget is one bank.
func TestOptimalNeverWorseThanMonolithic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		spec := randomSpec(r)
		m := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		mono := partition.Energy(spec, partition.Monolithic(spec), m)
		maxBanks := 1 + r.Intn(8)
		p, e, err := partition.Optimal(spec, maxBanks, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const eps = 1e-6
		if float64(e) > float64(mono)*(1+eps)+eps {
			t.Fatalf("trial %d: optimal %v worse than monolithic %v (budget %d, %d blocks)",
				trial, e, mono, maxBanks, len(spec.Blocks))
		}
		if maxBanks == 1 && floatFar(float64(e), float64(mono)) {
			t.Fatalf("trial %d: 1-bank optimum %v != monolithic %v", trial, e, mono)
		}
		// The reported energy must match re-evaluating the partition.
		if re := partition.Energy(spec, p, m); floatFar(float64(e), float64(re)) {
			t.Fatalf("trial %d: reported %v, re-evaluated %v", trial, e, re)
		}
		checkCoverage(t, trial, spec, p, maxBanks)
	}
}

// checkCoverage asserts structural sanity: banks tile the block range
// contiguously, respect the budget, and conserve the access counts.
func checkCoverage(t *testing.T, trial int, spec *partition.Spec, p *partition.Partition, maxBanks int) {
	t.Helper()
	if len(p.Banks) < 1 || len(p.Banks) > maxBanks {
		t.Fatalf("trial %d: %d banks outside [1,%d]", trial, len(p.Banks), maxBanks)
	}
	next := 0
	var reads, writes uint64
	for _, b := range p.Banks {
		if b.FirstBlock != next || b.NumBlocks < 1 {
			t.Fatalf("trial %d: bank gap/overlap at block %d: %+v", trial, next, b)
		}
		if want := uint32(b.NumBlocks) * spec.BlockSize; b.SizeBytes < want {
			t.Fatalf("trial %d: bank capacity %dB below content %dB", trial, b.SizeBytes, want)
		}
		next = b.FirstBlock + b.NumBlocks
		reads += b.Reads
		writes += b.Writes
	}
	if next != len(spec.Blocks) {
		t.Fatalf("trial %d: banks cover %d of %d blocks", trial, next, len(spec.Blocks))
	}
	var wantR, wantW uint64
	for _, blk := range spec.Blocks {
		wantR += blk.Reads
		wantW += blk.Writes
	}
	if reads != wantR || writes != wantW {
		t.Fatalf("trial %d: access counts not conserved: %d/%d vs %d/%d", trial, reads, writes, wantR, wantW)
	}
}

// floatFar reports whether a and b differ beyond float round-off.
func floatFar(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff > 1e-9*scale+1e-9
}
