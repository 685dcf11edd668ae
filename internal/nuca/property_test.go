package nuca_test

import (
	"math"
	"math/rand"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/nuca"
	"lpmem/internal/testutil"
	"lpmem/internal/trace"
)

// randConfig draws a valid LLC geometry and policy mix.
func randConfig(r *rand.Rand) nuca.Config {
	return nuca.Config{
		Cores:        1 + r.Intn(8),
		Banks:        1 << r.Intn(4),
		SetsPerBank:  1 << r.Intn(5),
		Ways:         1 + r.Intn(4),
		LineSize:     16 << r.Intn(3),
		SegmentBytes: 8,
		TagFactor:    1 + r.Intn(3),
		Mapping:      nuca.MappingPolicies()[r.Intn(2)],
		Compression:  nuca.CompressionPolicies()[r.Intn(3)],
		Model:        testutil.PerturbModel(energy.DefaultMemoryModel(), r),
	}
}

// randTrace draws a multi-core trace matched to the config's core count.
func randTrace(r *rand.Rand, cores int) (*trace.Trace, error) {
	patterns := trace.SharingPatterns()
	return trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed:            r.Int63(),
		Cores:           cores,
		AccessesPerCore: 200 + r.Intn(800),
		Pattern:         patterns[r.Intn(len(patterns))],
		SharedFraction:  0.05 + 0.9*r.Float64(),
		PrivateBytes:    uint32(4096 << r.Intn(4)),
		SharedBytes:     uint32(4096 << r.Intn(5)),
		WriteFraction:   0.05 + 0.9*r.Float64(),
	})
}

// TestPerCoreConservationProperty: for any geometry, policy mix and
// perturbed energy model, per-core hits+misses sum to the core's
// accesses and the per-core totals sum to the global totals.
func TestPerCoreConservationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		cfg := randConfig(r)
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr, err := randTrace(r, cfg.Cores)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := llc.Replay(tr)
		if st.Hits+st.Misses != st.Accesses {
			t.Fatalf("trial %d: hits %d + misses %d != accesses %d (%+v)",
				trial, st.Hits, st.Misses, st.Accesses, cfg)
		}
		var acc, hits, misses uint64
		for c, cs := range st.PerCore {
			if cs.Hits+cs.Misses != cs.Accesses {
				t.Fatalf("trial %d: core %d: hits %d + misses %d != accesses %d (%+v)",
					trial, c, cs.Hits, cs.Misses, cs.Accesses, cfg)
			}
			acc += cs.Accesses
			hits += cs.Hits
			misses += cs.Misses
		}
		if acc != st.Accesses || hits != st.Hits || misses != st.Misses {
			t.Fatalf("trial %d: per-core sums (%d/%d/%d) != totals (%d/%d/%d) (%+v)",
				trial, acc, hits, misses, st.Accesses, st.Hits, st.Misses, cfg)
		}
	}
}

// TestEffectiveCapacityProperty: compression never shrinks effective
// capacity — the ratio is ≥ 1 under every policy, geometry and model,
// and all cost outputs are finite and non-negative.
func TestEffectiveCapacityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 60; trial++ {
		cfg := randConfig(r)
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr, err := randTrace(r, cfg.Cores)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := llc.Replay(tr)
		if ratio := st.EffectiveCapacityRatio(); ratio < 1 || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
			t.Fatalf("trial %d: effective capacity ratio %v < 1 (%s, %+v)",
				trial, ratio, cfg.Compression, cfg)
		}
		for _, e := range []energy.PJ{st.BankEnergy, st.NoCEnergy, st.MemEnergy, st.TotalEnergy()} {
			if e < 0 || math.IsNaN(float64(e)) || math.IsInf(float64(e), 0) {
				t.Fatalf("trial %d: bad energy %v (%+v)", trial, e, cfg)
			}
		}
	}
}

// TestLatencyMonotoneProperty: NUCA hit latency never decreases with
// bank distance, for any drawn latency parameters.
func TestLatencyMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 100; trial++ {
		cfg := randConfig(r)
		cfg.BankCycles = 1 + r.Intn(16)
		cfg.HopCycles = 1 + r.Intn(8)
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for h := 0; h < 12; h++ {
			if llc.HitLatency(h+1) <= llc.HitLatency(h) {
				t.Fatalf("trial %d: HitLatency(%d)=%d not above HitLatency(%d)=%d (%+v)",
					trial, h+1, llc.HitLatency(h+1), h, llc.HitLatency(h), cfg)
			}
		}
	}
}

// TestOccupancyConservationProperty: per-core occupancy summed over all
// banks equals the incrementally tracked resident-line count, resident
// storage never exceeds the nominal byte budget, and no set holds more
// than TagFactor×Ways lines' worth of storage.
func TestOccupancyConservationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		cfg := randConfig(r)
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr, err := randTrace(r, cfg.Cores)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := llc.Replay(tr)
		var occ uint64
		for _, bs := range st.PerBank {
			for _, o := range bs.Occupancy {
				occ += o
			}
		}
		if occ != st.ResidentLines {
			t.Fatalf("trial %d: occupancy %d != resident lines %d (%+v)",
				trial, occ, st.ResidentLines, cfg)
		}
		capBytes := uint64(llc.Config().CapacityBytes())
		if st.ResidentSegBytes > capBytes {
			t.Fatalf("trial %d: resident %d B exceeds capacity %d B (%+v)",
				trial, st.ResidentSegBytes, capBytes, cfg)
		}
		maxLines := uint64(llc.Config().Banks * llc.Config().SetsPerBank *
			llc.Config().TagFactor * llc.Config().Ways)
		if st.ResidentLines > maxLines {
			t.Fatalf("trial %d: %d resident lines exceed %d tags (%+v)",
				trial, st.ResidentLines, maxLines, cfg)
		}
	}
}
