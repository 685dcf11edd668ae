package waycache

import (
	"math/rand"
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// refWDU is the map-based table the slot array replaced, kept as the
// oracle: line base -> way and line base -> timestamp, with the LRU
// victim found by iterating the timestamps.
type refWDU struct {
	capacity int
	entries  map[uint32]int
	lastUse  map[uint32]uint64
	clock    uint64
	hits     uint64
	lookups  uint64
}

func newRefWDU(capacity int) *refWDU {
	return &refWDU{
		capacity: capacity,
		entries:  make(map[uint32]int, capacity),
		lastUse:  make(map[uint32]uint64, capacity),
	}
}

func (w *refWDU) lookup(lineBase uint32) (int, bool) {
	w.clock++
	w.lookups++
	way, ok := w.entries[lineBase]
	if ok {
		w.hits++
		w.lastUse[lineBase] = w.clock
	}
	return way, ok
}

func (w *refWDU) record(lineBase uint32, way int) {
	w.clock++
	if _, ok := w.entries[lineBase]; !ok && len(w.entries) >= w.capacity {
		var victim uint32
		oldest := uint64(1<<63 - 1)
		for base, ts := range w.lastUse {
			if ts < oldest || (ts == oldest && base < victim) {
				oldest = ts
				victim = base
			}
		}
		delete(w.entries, victim)
		delete(w.lastUse, victim)
	}
	w.entries[lineBase] = way
	w.lastUse[lineBase] = w.clock
}

func (w *refWDU) invalidate(lineBase uint32) {
	delete(w.entries, lineBase)
	delete(w.lastUse, lineBase)
}

// refSimulate is Simulate over refWDU.
func refSimulate(tr *trace.Trace, cfg cache.Config, wduEntries int, cm energy.CacheModel) (Result, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return Result{}, err
	}
	wdu := newRefWDU(wduEntries)
	lineMask := ^(uint32(cfg.LineSize) - 1)
	var base, directed energy.PJ
	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		lineBase := a.Addr & lineMask
		base += cm.ConventionalAccess(cfg.Ways)
		_, known := wdu.lookup(lineBase)
		res := c.Access(a.Addr, a.Kind == trace.Write)
		if known && res.Hit {
			directed += cm.DirectedAccess()
		} else {
			directed += cm.ConventionalAccess(cfg.Ways) + cm.WayTableE
		}
		if !res.Hit {
			if res.Evicted {
				wdu.invalidate(res.EvictedAddr)
			}
			wdu.record(lineBase, res.Way)
		} else if !known {
			wdu.record(lineBase, res.Way)
		}
	}
	coverage := 0.0
	if wdu.lookups > 0 {
		coverage = float64(wdu.hits) / float64(wdu.lookups)
	}
	return Result{
		Coverage:   coverage,
		BaseEnergy: base,
		WduEnergy:  directed,
	}, nil
}

// TestWDUMatchesReference drives the slot table and the map oracle with
// the same random Lookup/Record/Invalidate sequence. Lines are drawn from
// a pool larger than the table, so both replacement and invalidation
// decide what later lookups see.
func TestWDUMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 16, 64} {
		r := rand.New(rand.NewSource(int64(capacity)))
		w, err := NewWDU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefWDU(capacity)
		lines := 2*capacity + 3
		for step := 0; step < 20000; step++ {
			base := uint32(r.Intn(lines)) * 32
			switch op := r.Intn(10); {
			case op < 5:
				way, ok := w.Lookup(base)
				wantWay, wantOK := ref.lookup(base)
				if way != wantWay || ok != wantOK {
					t.Fatalf("capacity %d step %d: Lookup(%#x) = (%d,%v), want (%d,%v)",
						capacity, step, base, way, ok, wantWay, wantOK)
				}
			case op < 9:
				way := r.Intn(64)
				w.Record(base, way)
				ref.record(base, way)
			default:
				w.Invalidate(base)
				ref.invalidate(base)
			}
		}
		if w.Hits != ref.hits || w.Lookups != ref.lookups {
			t.Fatalf("capacity %d: Hits/Lookups = %d/%d, want %d/%d",
				capacity, w.Hits, w.Lookups, ref.hits, ref.lookups)
		}
	}
}

// TestSimulateMatchesReference: on every kernel, at E7's three
// geometries and four table sizes, Simulate returns the oracle's Result
// bit for bit.
func TestSimulateMatchesReference(t *testing.T) {
	apps, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	cm := energy.DefaultCacheModel()
	for _, ways := range []int{8, 16, 32} {
		cfg := cache.Config{Sets: 16, Ways: ways, LineSize: 32, WriteBack: true, WriteAllocate: true}
		for _, entries := range []int{1, 4, 16, 64} {
			for _, app := range apps {
				got, err := Simulate(app.Trace, cfg, entries, cm)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSimulate(app.Trace, cfg, entries, cm)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s, %d ways, %d entries: Simulate = %+v, want %+v", app.Name, ways, entries, got, want)
				}
			}
		}
	}
}
