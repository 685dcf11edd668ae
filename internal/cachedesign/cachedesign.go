// Package cachedesign implements direct cache design-space exploration,
// reproducing DATE'03 8A.1 (Ghosh & Givargis: "Analytical Design Space
// Exploration of Caches for Embedded Systems").
//
// The traditional methodology picks arbitrary cache parameters, simulates,
// inspects the miss rate, and iterates — converging slowly because the
// design space is large. The paper's algorithm instead *computes* the
// cache configurations satisfying a desired performance directly from the
// application trace, exploiting the structure of the space: for a fixed
// line size and associativity, miss rate is non-increasing in the number
// of sets (a consequence of LRU stack inclusion), so the smallest
// qualifying size is found by bisection rather than a full sweep.
//
// Both methodologies are implemented; the reproduced result is that the
// direct method returns the same minimal configurations while running an
// order of magnitude fewer simulations. The explorer counts the
// simulations each method asks for, but prices them from the same stack
// inclusion: one LRU stack pass per set count (cache.StackHits) gives the
// miss rate of every associativity at once.
package cachedesign

import (
	"fmt"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
)

// Space bounds the design space to explore.
type Space struct {
	// MinSets/MaxSets bound the set count (powers of two).
	MinSets, MaxSets int
	// Ways lists the associativities to consider.
	Ways []int
	// LineSize is fixed (bytes).
	LineSize int
}

// DefaultSpace is the space used by the E19 experiment.
func DefaultSpace() Space {
	return Space{MinSets: 2, MaxSets: 1024, Ways: []int{1, 2, 4, 8}, LineSize: 32}
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Config   cache.Config
	MissRate float64
}

// SizeBytes returns the candidate's capacity.
func (c Candidate) SizeBytes() int { return c.Config.SizeBytes() }

// Explorer evaluates configurations of a space on one trace and counts
// them, so methodologies can be compared.
type Explorer struct {
	tr *trace.Trace
	// Simulations counts the distinct configurations evaluated since the
	// explorer was made or last Reset: the cache simulations a
	// design-simulate-analyze flow would run to get those miss rates. The
	// explorer itself prices them from stack passes (see missRate).
	Simulations int
	seen        map[cache.Config]bool
	// passes holds one stack pass per geometry. A pass depends only on
	// the trace, so it outlives Reset.
	passes map[geometry]stackPass
}

// geometry is what a stack pass depends on besides the trace.
type geometry struct{ sets, lineSize int }

// stackPass is one cache.StackHits result: the access count and the
// hits at each stack depth.
type stackPass struct {
	accesses uint64
	hits     []uint64
}

// NewExplorer wraps the data accesses of a trace.
func NewExplorer(tr *trace.Trace) *Explorer {
	return &Explorer{tr: tr.Data(), seen: make(map[cache.Config]bool), passes: make(map[geometry]stackPass)}
}

// missRate returns cfg's miss rate and counts cfg as simulated the first
// time since Reset. Every configuration a Space makes is LRU and
// write-allocate, so it is priced from the stack pass of its sets and
// line size: one pass, depth deep, prices every associativity up to
// depth. A pass too shallow for cfg is redone at the greater depth.
func (e *Explorer) missRate(cfg cache.Config, depth int) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	g := geometry{cfg.Sets, cfg.LineSize}
	p, ok := e.passes[g]
	if !ok || len(p.hits) < cfg.Ways {
		accesses, hits, err := cache.StackHits(e.tr, cfg.Sets, cfg.LineSize, max(depth, cfg.Ways))
		if err != nil {
			return 0, err
		}
		p = stackPass{accesses, hits}
		e.passes[g] = p
	}
	if !e.seen[cfg] {
		e.seen[cfg] = true
		e.Simulations++
	}
	st := cache.Stats{Accesses: p.accesses}
	for _, h := range p.hits[:cfg.Ways] {
		st.Hits += h
	}
	return 1 - st.HitRate(), nil
}

// Reset starts a fresh count for the next methodology: Simulations goes
// to zero and every configuration counts again. The stack passes stay.
func (e *Explorer) Reset() {
	e.Simulations = 0
	clear(e.seen)
}

// widest is the space's largest associativity: the depth of the stack
// passes that price it.
func (s Space) widest() int {
	w := 0
	for _, ways := range s.Ways {
		w = max(w, ways)
	}
	return w
}

func (s Space) config(sets, ways int) cache.Config {
	return cache.Config{Sets: sets, Ways: ways, LineSize: s.LineSize, WriteBack: true, WriteAllocate: true}
}

// Exhaustive is the design-simulate-analyze baseline: simulate every
// configuration in the space and pick the smallest one meeting the target
// miss rate.
func (e *Explorer) Exhaustive(space Space, targetMissRate float64) (*Candidate, error) {
	depth := space.widest()
	var best *Candidate
	for _, ways := range space.Ways {
		for sets := space.MinSets; sets <= space.MaxSets; sets <<= 1 {
			cfg := space.config(sets, ways)
			mr, err := e.missRate(cfg, depth)
			if err != nil {
				return nil, err
			}
			if mr <= targetMissRate {
				cand := &Candidate{Config: cfg, MissRate: mr}
				if best == nil || cand.SizeBytes() < best.SizeBytes() {
					best = cand
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cachedesign: no configuration meets miss rate %.4f", targetMissRate)
	}
	return best, nil
}

// Direct is the paper-style exploration: per associativity, bisect over
// the set count (miss rate is monotone in sets for fixed ways/line), then
// take the smallest qualifying configuration across associativities.
func (e *Explorer) Direct(space Space, targetMissRate float64) (*Candidate, error) {
	// Enumerate the power-of-two set counts once.
	var setsList []int
	for s := space.MinSets; s <= space.MaxSets; s <<= 1 {
		setsList = append(setsList, s)
	}
	depth := space.widest()
	var best *Candidate
	for _, ways := range space.Ways {
		// Bisect the smallest index whose miss rate meets the target.
		lo, hi := 0, len(setsList)-1
		// Quick reject: if even the biggest cache fails, skip this
		// associativity.
		mrMax, err := e.missRate(space.config(setsList[hi], ways), depth)
		if err != nil {
			return nil, err
		}
		if mrMax > targetMissRate {
			continue
		}
		for lo < hi {
			mid := (lo + hi) / 2
			mr, err := e.missRate(space.config(setsList[mid], ways), depth)
			if err != nil {
				return nil, err
			}
			if mr <= targetMissRate {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cfg := space.config(setsList[lo], ways)
		mr, err := e.missRate(cfg, depth)
		if err != nil {
			return nil, err
		}
		cand := &Candidate{Config: cfg, MissRate: mr}
		if best == nil || cand.SizeBytes() < best.SizeBytes() {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cachedesign: no configuration meets miss rate %.4f", targetMissRate)
	}
	return best, nil
}
