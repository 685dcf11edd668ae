// Package waycache implements way determination for highly associative
// data caches (DATE'03 10E.4, Nicolaescu/Veidenbaum/Nicolau: "Reducing
// Power Consumption for High-Associativity Data Caches in Embedded
// Processors").
//
// A conventional N-way set-associative access probes all N tag and data
// ways in parallel; energy therefore grows linearly with associativity. A
// small Way Determination Unit (WDU) — a fully associative table of
// recently used line addresses and the way each resides in — is consulted
// before the cache access. On a WDU hit, exactly one way is enabled. The
// WDU *determines* (rather than predicts) the way: it is kept coherent
// with line movement, so a WDU hit can never enable the wrong way, and
// there is no mis-prediction penalty or timing change.
//
//lint:hotpath
package waycache

import (
	"fmt"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/trace"
)

// WDU is the way-determination table: a fully associative array of
// capacity slots, each binding a line address to the way it resides in,
// with LRU replacement.
type WDU struct {
	slots []slot
	clock uint64

	// Hits and Lookups count coverage.
	Hits    uint64
	Lookups uint64
}

// slot is one WDU entry. lastUse is the clock at the entry's latest
// Record or Lookup hit; every Record and Lookup advances the clock, so no
// two valid slots share a timestamp and the LRU victim is unique.
type slot struct {
	base    uint32
	way     int
	lastUse uint64
	valid   bool
}

// NewWDU creates a table with the given entry count.
func NewWDU(capacity int) (*WDU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("waycache: capacity must be positive, got %d", capacity)
	}
	return &WDU{slots: make([]slot, capacity)}, nil
}

// find returns the index of the valid slot holding lineBase, or -1.
func (w *WDU) find(lineBase uint32) int {
	for i := range w.slots {
		if w.slots[i].valid && w.slots[i].base == lineBase {
			return i
		}
	}
	return -1
}

// Lookup consults the table. It returns the way and true on a hit.
func (w *WDU) Lookup(lineBase uint32) (int, bool) {
	w.clock++
	w.Lookups++
	i := w.find(lineBase)
	if i < 0 {
		return 0, false
	}
	w.Hits++
	w.slots[i].lastUse = w.clock
	return w.slots[i].way, true
}

// Record inserts or updates the line->way binding. It reuses the slot
// holding the line, else the first invalid slot, else the least recently
// used one.
func (w *WDU) Record(lineBase uint32, way int) {
	w.clock++
	victim := 0
	for i := range w.slots {
		s := &w.slots[i]
		if s.valid && s.base == lineBase {
			victim = i
			break
		}
		if w.slots[victim].valid && (!s.valid || s.lastUse < w.slots[victim].lastUse) {
			victim = i
		}
	}
	w.slots[victim] = slot{base: lineBase, way: way, lastUse: w.clock, valid: true}
}

// Invalidate removes a binding (the line moved or was evicted).
func (w *WDU) Invalidate(lineBase uint32) {
	if i := w.find(lineBase); i >= 0 {
		w.slots[i].valid = false
	}
}

// Coverage returns the fraction of lookups that hit.
func (w *WDU) Coverage() float64 {
	if w.Lookups == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Lookups)
}

// Result summarises one simulation.
type Result struct {
	// Coverage is the WDU hit fraction.
	Coverage float64
	// BaseEnergy is the energy of conventional all-way probing.
	BaseEnergy energy.PJ
	// WduEnergy is the energy with way determination.
	WduEnergy energy.PJ
}

// Saving returns the percent cache power reduction, the paper's headline
// metric.
func (r Result) Saving() float64 {
	if r.BaseEnergy == 0 {
		return 0
	}
	return 100 * float64(r.BaseEnergy-r.WduEnergy) / float64(r.BaseEnergy)
}

// Simulate replays the data accesses of tr through an N-way cache with a
// WDU of wduEntries entries and accounts energy under cm.
func Simulate(tr *trace.Trace, cfg cache.Config, wduEntries int, cm energy.CacheModel) (Result, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return Result{}, err
	}
	wdu, err := NewWDU(wduEntries)
	if err != nil {
		return Result{}, err
	}
	lineMask := ^(uint32(cfg.LineSize) - 1)
	var base, directed energy.PJ
	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		lineBase := a.Addr & lineMask
		base += cm.ConventionalAccess(cfg.Ways)

		_, known := wdu.Lookup(lineBase)
		res := c.Access(a.Addr, a.Kind == trace.Write)
		if known && res.Hit {
			// Single-way access; the WDU is authoritative.
			directed += cm.DirectedAccess()
		} else {
			// Conventional probe plus the WDU lookup that missed.
			directed += cm.ConventionalAccess(cfg.Ways) + cm.WayTableE
		}
		// Keep the WDU coherent with line movement.
		if !res.Hit {
			if res.Evicted {
				wdu.Invalidate(res.EvictedAddr)
			}
			wdu.Record(lineBase, res.Way)
		} else if !known {
			wdu.Record(lineBase, res.Way)
		}
	}
	return Result{
		Coverage:   wdu.Coverage(),
		BaseEnergy: base,
		WduEnergy:  directed,
	}, nil
}
