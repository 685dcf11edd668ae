package lpmem

import (
	"fmt"
	"slices"

	"lpmem/internal/nuca"
	"lpmem/internal/stats"
	"lpmem/internal/trace"
)

// The CMP scenario suite (E24–E26) moves the repository past its
// single-core experiments: multi-core interleaved traces drive a shared,
// banked, optionally compressed NUCA last-level cache (internal/nuca).
// The claim structure reproduced is the compression-based NUCA LLC of
// arXiv 2201.00774 — compression-enlarged effective capacity over a
// non-uniform banked cache — with the bank-locality sensitivity the
// DRAM/flash survey (arXiv 1805.09127) motivates.

// nucaTrace synthesizes one interleaved multi-core stream for the CMP
// experiments.
func nucaTrace(seed int64, cores int, pattern trace.SharingPattern) (*trace.Trace, error) {
	return trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed:            seed,
		Cores:           cores,
		AccessesPerCore: 6000,
		Pattern:         pattern,
		PrivateBytes:    16 << 10,
		SharedBytes:     32 << 10,
	})
}

// nucaBaseConfig is the shared-LLC geometry E24–E26 start from: a 32 KiB
// compressed-capable cache over 8 banks, small enough that the synthetic
// working sets create real capacity pressure.
func nucaBaseConfig(cores int) nuca.Config {
	return nuca.Config{Cores: cores, Banks: 8, SetsPerBank: 32}
}

// runE24 measures sharing-pattern sensitivity: the same shared LLC
// serves private, shared and producer-consumer interleavings at 2–8
// cores. A shared working set keeps one copy for all cores, so its hit
// rate survives core scaling, while private working sets split the
// capacity and degrade — the fundamental CMP shared-cache trade-off.
func runE24() (*Result, error) {
	coreCounts := []int{2, 4, 8}
	table := stats.NewTable("pattern", "cores", "hit %", "avg lat", "miss/core imbalance", "energy")
	// hitAt[pattern] records the hit rate at each core count so the
	// summary can report degradation under scaling.
	hitAt := map[trace.SharingPattern][]float64{}
	for _, cores := range coreCounts {
		for _, pattern := range trace.SharingPatterns() {
			tr, err := nucaTrace(24, cores, pattern)
			if err != nil {
				return nil, err
			}
			llc, err := nuca.New(nucaBaseConfig(cores))
			if err != nil {
				return nil, err
			}
			st := llc.Replay(tr)
			hitAt[pattern] = append(hitAt[pattern], st.HitRate())

			// Miss imbalance: max/min per-core misses, the fairness
			// signal a shared LLC is judged on.
			minM, maxM := slices.Min(st.CoreMisses), slices.Max(st.CoreMisses)
			imbalance := float64(maxM)
			if minM > 0 {
				imbalance = float64(maxM) / float64(minM)
			}
			table.AddRow(string(pattern), cores, 100*st.HitRate(), st.AvgLatency(),
				imbalance, float64(st.TotalEnergy()))
		}
	}
	// Degradation from the smallest to the largest core count: private
	// working sets split the fixed capacity N ways and decay; a shared
	// set stays one copy regardless of N.
	drop := func(p trace.SharingPattern) float64 {
		h := hitAt[p]
		return 100 * (h[0] - h[len(h)-1])
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("scaling 2-8 cores costs private working sets %.1f pp hit rate but shared sets only %.1f pp: one LLC copy serves every core (paper: shared-LLC capacity is the CMP scaling lever)",
			drop(trace.SharingPrivate), drop(trace.SharingShared)),
	}, nil
}

// runE25 compares static line-interleaved bank mapping against the
// distance-aware first-touch policy on a 16-bank mesh: first-touch puts
// each core's pages on its nearest bank, cutting hop latency, at the
// cost of concentrating load when the pattern is not private.
func runE25() (*Result, error) {
	const cores = 4
	table := stats.NewTable("pattern", "mapping", "hit %", "avg lat", "noc energy", "lat save %")
	saves := []float64{}
	for _, pattern := range trace.SharingPatterns() {
		tr, err := nucaTrace(25, cores, pattern)
		if err != nil {
			return nil, err
		}
		var staticLat float64
		for _, mp := range nuca.MappingPolicies() {
			cfg := nucaBaseConfig(cores)
			cfg.Banks = 16
			cfg.SetsPerBank = 16
			cfg.Mapping = mp
			llc, err := nuca.New(cfg)
			if err != nil {
				return nil, err
			}
			st := llc.Replay(tr)
			saving := 0.0
			if mp == nuca.MapStatic {
				staticLat = st.AvgLatency()
			} else {
				saving = stats.PercentSaving(staticLat, st.AvgLatency())
				saves = append(saves, saving)
			}
			table.AddRow(string(pattern), string(mp), 100*st.HitRate(), st.AvgLatency(),
				float64(st.NoCEnergy), saving)
		}
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("distance-aware first-touch mapping cuts average access latency %.1f%% avg vs static interleaving across sharing patterns (paper: NUCA bank distance is a first-order latency term)",
			stats.Mean(saves)),
	}, nil
}

// runE26 sweeps the compression policy on a capacity-stressed shared
// LLC: differential compression packs value-local lines into fewer
// segments, enlarging effective capacity and converting misses into
// (slightly slower) hits; the ideal half-size codec bounds the technique.
func runE26() (*Result, error) {
	const cores = 4
	table := stats.NewTable("pattern", "policy", "hit %", "eff capacity x", "expansions", "miss save %")
	capRatios := []float64{}
	missSaves := []float64{}
	for _, pattern := range trace.SharingPatterns() {
		tr, err := nucaTrace(26, cores, pattern)
		if err != nil {
			return nil, err
		}
		var baseMisses uint64
		for _, comp := range nuca.CompressionPolicies() {
			cfg := nucaBaseConfig(cores)
			// Halve the cache so compression has misses to recover.
			cfg.SetsPerBank = 16
			cfg.Compression = comp
			llc, err := nuca.New(cfg)
			if err != nil {
				return nil, err
			}
			st := llc.Replay(tr)
			saving := 0.0
			if comp == nuca.CompNone {
				baseMisses = st.Misses
			} else {
				saving = stats.PercentSaving(float64(baseMisses), float64(st.Misses))
				missSaves = append(missSaves, saving)
			}
			if comp == nuca.CompDiff {
				capRatios = append(capRatios, st.EffectiveCapacityRatio())
			}
			table.AddRow(string(pattern), string(comp), 100*st.HitRate(),
				st.EffectiveCapacityRatio(), st.Expansions, saving)
		}
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("differential compression holds %.2fx the nominal line count (avg) and cuts misses %.1f%% avg vs the uncompressed LLC (paper: compression enlarges NUCA effective capacity)",
			stats.Mean(capRatios), stats.Mean(missSaves)),
	}, nil
}
