package nuca_test

import (
	"math"
	"math/rand"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/nuca"
	"lpmem/internal/trace"
)

// randConfig draws a valid LLC geometry and policy mix.
func randConfig(r *rand.Rand) nuca.Config {
	return nuca.Config{
		Cores:       1 + r.Intn(8),
		Banks:       1 << r.Intn(4),
		SetsPerBank: 1 << r.Intn(5),
		Mapping:     nuca.MappingPolicies()[r.Intn(2)],
		Compression: nuca.CompressionPolicies()[r.Intn(3)],
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
		PrivateBytes:    uint32(4096 << r.Intn(4)),
		SharedBytes:     uint32(4096 << r.Intn(5)),
	})
}

// TestPerCoreConservationProperty: for any geometry and policy mix,
// hits and misses sum to the accesses and the per-core misses sum to
// the global misses.
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
		var misses uint64
		for _, m := range st.CoreMisses {
			misses += m
		}
		if len(st.CoreMisses) != cfg.Cores || misses != st.Misses {
			t.Fatalf("trial %d: per-core misses %v sum to %d, not the %d global misses (%+v)",
				trial, st.CoreMisses, misses, st.Misses, cfg)
		}
	}
}

// TestEffectiveCapacityProperty: compression never shrinks effective
// capacity — the ratio is ≥ 1 under every policy and geometry, and all
// cost outputs are finite and non-negative.
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

// TestOccupancyConservationProperty: resident storage never exceeds the
// nominal byte budget, and the cache never holds more lines than it has
// tags, Banks×SetsPerBank×TagFactor×Ways.
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
		capBytes := uint64(cfg.CapacityBytes())
		if st.ResidentSegBytes > capBytes {
			t.Fatalf("trial %d: resident %d B exceeds capacity %d B (%+v)",
				trial, st.ResidentSegBytes, capBytes, cfg)
		}
		maxLines := uint64(cfg.Banks * cfg.SetsPerBank * nuca.TagFactor * nuca.Ways)
		if st.ResidentLines > maxLines {
			t.Fatalf("trial %d: %d resident lines exceed %d tags (%+v)",
				trial, st.ResidentLines, maxLines, cfg)
		}
	}
}
