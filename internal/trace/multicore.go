package trace

import (
	"fmt"
	"math/rand"
)

// Multi-core interleaved synthetic streams.
//
// A chip-multiprocessor's shared last-level cache sees one interleaved
// reference stream tagged with the issuing core. The generators here
// model the three canonical CMP sharing shapes the NUCA experiments
// sweep: fully private working sets (each core streams over its own
// arrays), a shared read-mostly region (one copy of common data serves
// every core), and pairwise producer-consumer rings (core c writes what
// core c+1 reads). All are deterministic given the seed, and values
// follow per-core random walks with small steps so the differential
// line codec sees the value locality real media/DSP data has.

// SharingPattern names a multi-core access-stream shape.
type SharingPattern string

// The modelled sharing patterns.
const (
	// SharingPrivate gives every core a disjoint working set.
	SharingPrivate SharingPattern = "private"
	// SharingShared directs a fraction of every core's accesses at one
	// common read-mostly region walked by all cores.
	SharingShared SharingPattern = "shared"
	// SharingProducerConsumer streams data through per-pair ring
	// buffers: core c produces into ring c, core (c+1) mod N consumes it.
	SharingProducerConsumer SharingPattern = "producer-consumer"
)

// SharingPatterns lists the patterns in canonical order.
func SharingPatterns() []SharingPattern {
	return []SharingPattern{SharingPrivate, SharingShared, SharingProducerConsumer}
}

// MultiCoreConfig parameterises SynthesizeMultiCore.
type MultiCoreConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Cores is the number of cores interleaved into the stream (1..256).
	Cores int
	// AccessesPerCore is the number of accesses each core issues.
	AccessesPerCore int
	// Pattern selects the sharing shape.
	Pattern SharingPattern
	// PrivateBytes is each core's private footprint. Zero defaults to
	// 64 KiB.
	PrivateBytes uint32
	// SharedBytes is the footprint of the shared region or of the ring
	// buffer pool. Zero defaults to 128 KiB.
	SharedBytes uint32
}

// sharedFraction is the probability an access targets the shared region
// (SharingShared) or a ring buffer (SharingProducerConsumer); private
// accesses store with probability writeFraction.
const (
	sharedFraction = 0.4
	writeFraction  = 0.25
)

// withDefaults fills the zero-value knobs.
func (cfg MultiCoreConfig) withDefaults() MultiCoreConfig {
	if cfg.PrivateBytes == 0 {
		cfg.PrivateBytes = 64 << 10
	}
	if cfg.SharedBytes == 0 {
		cfg.SharedBytes = 128 << 10
	}
	return cfg
}

// validate rejects configurations no hardware could mean.
func (cfg MultiCoreConfig) validate() error {
	if cfg.Cores < 1 || cfg.Cores > 256 {
		return fmt.Errorf("trace: multi-core synth needs 1..256 cores, got %d", cfg.Cores)
	}
	if cfg.AccessesPerCore < 0 {
		return fmt.Errorf("trace: negative accesses per core %d", cfg.AccessesPerCore)
	}
	switch cfg.Pattern {
	case SharingPrivate, SharingShared, SharingProducerConsumer:
	default:
		return fmt.Errorf("trace: unknown sharing pattern %q", cfg.Pattern)
	}
	return nil
}

// coreState is the per-core generation state.
type coreState struct {
	// privCursor walks the core's private region with stride 4,
	// occasionally jumping (a loop nest over a few arrays).
	privCursor uint32
	// sharedCursor walks the shared region (SharingShared).
	sharedCursor uint32
	// prodPos and consPos are the core's ring write position and its
	// read position into the predecessor's ring.
	prodPos, consPos uint32
	// value is the core's value random walk.
	value uint32
	// issued counts the accesses the core has produced so far.
	issued int
}

// SynthesizeMultiCore generates one interleaved multi-core trace. Each
// core issues exactly cfg.AccessesPerCore accesses; the interleaving
// order is a seeded uniform shuffle over the cores with outstanding
// work, so the stream has no fixed round-robin phase for a banked cache
// to resonate with. The returned trace has MultiCore set.
func SynthesizeMultiCore(cfg MultiCoreConfig) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Cores * cfg.AccessesPerCore
	t := New(total)
	t.MultiCore = true

	// Address map: per-core private regions first, shared pool after.
	privBase := func(c int) uint32 { return uint32(c) * cfg.PrivateBytes }
	sharedBase := uint32(cfg.Cores) * cfg.PrivateBytes
	ringBytes := cfg.SharedBytes / uint32(cfg.Cores)
	ringBytes &^= 3
	if ringBytes < 64 {
		ringBytes = 64
	}
	ringBase := func(c int) uint32 { return sharedBase + uint32(c)*ringBytes }

	cores := make([]coreState, cfg.Cores)
	for c := range cores {
		// Each core starts its walks at a seeded phase of its own, so
		// private footprints overlap in time but not in address.
		cores[c].privCursor = uint32(rng.Intn(int(cfg.PrivateBytes/4))) * 4 % cfg.PrivateBytes
		cores[c].value = rng.Uint32()
		// Producer and consumer both start at the ring head; the coin
		// flip between produce and consume keeps them tracking each
		// other, so consumed lines really were produced recently.
	}

	// live tracks cores that still owe accesses; the pick below stays
	// uniform over them, so completion order is seed-dependent but the
	// per-core counts are exact.
	live := make([]int, cfg.Cores)
	for c := range live {
		live[c] = c
	}
	for len(live) > 0 {
		li := rng.Intn(len(live))
		c := live[li]
		st := &cores[c]

		var a Access
		a.Core = uint8(c)
		a.Width = 4
		// Value random walk: adjacent values differ by a small signed
		// step, the locality the differential codec keys on.
		st.value += uint32(rng.Intn(1024)) - 512
		a.Value = st.value

		shared := cfg.Pattern != SharingPrivate && rng.Float64() < sharedFraction
		switch {
		case !shared:
			// Private strided walk with occasional jumps between arrays.
			if rng.Intn(64) == 0 {
				st.privCursor = uint32(rng.Intn(int(cfg.PrivateBytes/4))) * 4
			}
			a.Addr = privBase(c) + st.privCursor%cfg.PrivateBytes
			st.privCursor += 4
			a.Kind = Read
			if rng.Float64() < writeFraction {
				a.Kind = Write
			}
		case cfg.Pattern == SharingShared:
			// Read-mostly walk over the one shared image; every core
			// touches the same addresses, so a shared cache keeps one
			// copy where private caches would keep N.
			if rng.Intn(32) == 0 {
				st.sharedCursor = uint32(rng.Intn(int(cfg.SharedBytes/4))) * 4
			}
			a.Addr = sharedBase + st.sharedCursor%cfg.SharedBytes
			st.sharedCursor += 4
			a.Kind = Read
			if rng.Intn(16) == 0 { // rare shared writes (reduction variables)
				a.Kind = Write
			}
		default: // SharingProducerConsumer
			if rng.Intn(2) == 0 {
				// Produce: write the next word of this core's ring.
				a.Addr = ringBase(c) + st.prodPos
				st.prodPos = (st.prodPos + 4) % ringBytes
				a.Kind = Write
			} else {
				// Consume: read the predecessor's ring at a lagged offset.
				pred := (c + cfg.Cores - 1) % cfg.Cores
				a.Addr = ringBase(pred) + st.consPos
				st.consPos = (st.consPos + 4) % ringBytes
				a.Kind = Read
			}
		}

		t.Append(a)
		st.issued++
		if st.issued == cfg.AccessesPerCore {
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return t, nil
}
