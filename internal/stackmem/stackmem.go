// Package stackmem implements the stack-based on-chip memory organization
// of DATE'03 10F.3 (Mamidipaka & Dutt: "On-Chip Stack Based Memory
// Organization for Low Power Embedded Architectures").
//
// Function calls save return addresses and callee-saved registers on the
// runtime stack; in call-heavy embedded code this traffic is a significant
// share of all data-cache accesses. The proposal routes stack accesses to
// a small dedicated on-chip SRAM instead of the L1 data cache: the SRAM is
// far cheaper per access than a set-associative lookup, never misses (the
// hot stack top fits), and removing stack traffic from the cache also
// removes the conflict misses it caused.
package stackmem

import (
	"fmt"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/trace"
)

// Config describes the split organization.
type Config struct {
	// StackLo and StackHi delimit the stack region (inclusive lo,
	// exclusive hi).
	StackLo, StackHi uint32
	// StackSRAM is the dedicated stack memory size in bytes.
	StackSRAM uint32
	// Cache is the L1 D-cache geometry.
	Cache cache.Config
}

// Result compares the baseline (everything through the D-cache) against
// the split organization.
type Result struct {
	// StackFraction is the share of data accesses that hit the stack
	// region.
	StackFraction float64
	// BaseCacheEnergy is the L1 D-cache energy with all traffic.
	BaseCacheEnergy energy.PJ
	// SplitCacheEnergy is the L1 D-cache energy once stack traffic is
	// diverted.
	SplitCacheEnergy energy.PJ
	// StackEnergy is the energy of the dedicated stack SRAM.
	StackEnergy energy.PJ
	// BaseMisses and SplitMisses expose the conflict-miss side effect.
	BaseMisses, SplitMisses uint64
}

// CacheSaving returns the percent reduction in L1 D-cache energy — the
// paper's headline metric (up to 32.5%).
func (r Result) CacheSaving() float64 {
	if r.BaseCacheEnergy == 0 {
		return 0
	}
	return 100 * float64(r.BaseCacheEnergy-r.SplitCacheEnergy) / float64(r.BaseCacheEnergy)
}

// TotalSaving returns the percent reduction counting the stack SRAM too.
func (r Result) TotalSaving() float64 {
	if r.BaseCacheEnergy == 0 {
		return 0
	}
	return 100 * float64(r.BaseCacheEnergy-(r.SplitCacheEnergy+r.StackEnergy)) /
		float64(r.BaseCacheEnergy)
}

// Simulate replays the data accesses of tr under both organizations.
// Cache access energy is charged per probe from cm (all ways probed); the
// stack SRAM is charged from mm at its own (small) size.
func Simulate(tr *trace.Trace, cfg Config, cm energy.CacheModel, mm energy.MemoryModel) (Result, error) {
	if cfg.StackLo >= cfg.StackHi {
		return Result{}, fmt.Errorf("stackmem: empty stack region [%#x,%#x)", cfg.StackLo, cfg.StackHi)
	}
	if err := mm.Validate(); err != nil {
		return Result{}, fmt.Errorf("stackmem: %w", err)
	}
	baseCache, err := cache.New(cfg.Cache)
	if err != nil {
		return Result{}, err
	}
	splitCache, err := cache.New(cfg.Cache)
	if err != nil {
		return Result{}, err
	}
	perProbe := cm.ConventionalAccess(cfg.Cache.Ways)
	var res Result
	var stackAccesses, dataAccesses uint64
	var stackE energy.PJ
	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		dataAccesses++
		isWrite := a.Kind == trace.Write
		baseCache.Access(a.Addr, isWrite)
		res.BaseCacheEnergy += perProbe
		if a.Addr >= cfg.StackLo && a.Addr < cfg.StackHi {
			stackAccesses++
			if isWrite {
				stackE += mm.WriteEnergy(cfg.StackSRAM)
			} else {
				stackE += mm.ReadEnergy(cfg.StackSRAM)
			}
			continue
		}
		splitCache.Access(a.Addr, isWrite)
		res.SplitCacheEnergy += perProbe
	}
	if dataAccesses > 0 {
		res.StackFraction = float64(stackAccesses) / float64(dataAccesses)
	}
	res.StackEnergy = stackE
	res.BaseMisses = baseCache.Stats().Misses
	res.SplitMisses = splitCache.Stats().Misses
	return res, nil
}
