package cache_test

import (
	"math/rand"
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
)

// randomConfig draws a well-formed geometry: power-of-two sets and line
// size, small associativity, random policies.
func randomConfig(r *rand.Rand) cache.Config {
	return cache.Config{
		Sets:          1 << r.Intn(7),
		Ways:          1 + r.Intn(4),
		LineSize:      4 << r.Intn(5),
		WriteBack:     r.Intn(2) == 0,
		WriteAllocate: r.Intn(2) == 0,
	}
}

// randomTrace draws width-aligned reads and writes over an address pool
// small enough to produce both hits and conflict misses.
func randomTrace(r *rand.Rand) *trace.Trace {
	widths := []uint8{1, 2, 4}
	t := trace.New(256)
	span := uint32(1) << (8 + r.Intn(8))
	for i, n := 0, 16+r.Intn(512); i < n; i++ {
		w := widths[r.Intn(len(widths))]
		a := trace.Access{
			Addr:  (r.Uint32() % span) &^ uint32(w-1),
			Value: r.Uint32(),
			Width: w,
			Kind:  trace.Read,
		}
		if r.Intn(3) == 0 {
			a.Kind = trace.Write
		}
		t.Append(a)
	}
	return t
}

// TestReplayStatsInvariants: across random geometries, policies and
// traces, the accounting identities every experiment table is built on
// must hold — hit rate in [0,1], hits+misses == accesses, and refills
// never exceeding misses.
func TestReplayStatsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		cfg := randomConfig(r)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced bad config: %v", trial, err)
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := randomTrace(r)
		st := c.Replay(tr)
		if hr := st.HitRate(); hr < 0 || hr > 1 {
			t.Fatalf("trial %d: hit rate %v outside [0,1] (cfg %+v)", trial, hr, cfg)
		}
		if st.Hits+st.Misses != st.Accesses {
			t.Fatalf("trial %d: hits %d + misses %d != accesses %d (cfg %+v)",
				trial, st.Hits, st.Misses, st.Accesses, cfg)
		}
		if st.Accesses != uint64(tr.Len()) {
			t.Fatalf("trial %d: %d accesses counted for a %d-access trace", trial, st.Accesses, tr.Len())
		}
		if st.Refills > st.Misses {
			t.Fatalf("trial %d: refills %d > misses %d (cfg %+v)", trial, st.Refills, st.Misses, cfg)
		}
		if !cfg.WriteBack && st.WriteBacks != 0 {
			t.Fatalf("trial %d: write-through cache recorded %d write-backs", trial, st.WriteBacks)
		}
		// Flushing after the run can only write back lines that exist.
		if flushed := c.Flush(); flushed > cfg.Sets*cfg.Ways {
			t.Fatalf("trial %d: flushed %d lines from a %d-line cache", trial, flushed, cfg.Sets*cfg.Ways)
		}
	}
}

// TestEmptyTraceHitRate: the documented zero-accesses convention.
func TestEmptyTraceHitRate(t *testing.T) {
	var st cache.Stats
	if st.HitRate() != 0 {
		t.Fatalf("empty stats hit rate %v, want 0", st.HitRate())
	}
}
