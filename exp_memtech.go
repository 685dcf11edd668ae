package lpmem

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"lpmem/internal/energy"
	"lpmem/internal/memtech"
	"lpmem/internal/stats"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"

	icache "lpmem/internal/cache"
)

// memtechKernels is the workload subset the technology experiments
// price: a media pipeline, a table-driven scanner, a pointer chaser and
// a control-heavy sorter — the access-pattern spread the cell-type and
// DRAM questions are sensitive to, kept small so E21–E23 stay cheap.
var memtechKernels = []string{"fir", "dct", "crc32", "listchase", "qsort"}

// runE21 prices the kernel suite's data traffic against one 64 KiB SRAM
// built from each ITRS cell type at the 65 nm node, splitting dynamic
// from leakage energy. The question the table answers is the modern
// inversion of every DATE'03 trade-off: once leakage dominates, the
// cell library — not the access count — decides total energy.
func runE21() (*Result, error) {
	apps, err := workloads.Traces(1, memtechKernels...)
	if err != nil {
		return nil, err
	}
	const arrayBytes = 64 << 10
	models := make(map[memtech.CellType]*memtech.Model, 3)
	for _, cell := range memtech.CellTypes() {
		cfg, err := memtech.Preset("sram-" + string(cell) + "-65")
		if err != nil {
			return nil, err
		}
		m, err := memtech.New(energy.DefaultMemoryModel(), cfg)
		if err != nil {
			return nil, err
		}
		models[cell] = m
	}

	table := stats.NewTable("app", "hp", "lop", "lstp", "best", "hp leak %", "lstp vs hp %")
	var savings, leakShares []float64
	for _, app := range apps {
		var reads, writes uint64
		for _, a := range app.Trace.Accesses {
			switch a.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			}
		}
		total := make(map[memtech.CellType]energy.PJ, 3)
		best := memtech.CellHP
		for _, cell := range memtech.CellTypes() {
			m := models[cell]
			total[cell] = m.TotalEnergy(arrayBytes, reads, writes, app.Cycles)
			if total[cell] < total[best] {
				best = cell
			}
		}
		hp := models[memtech.CellHP]
		leakShare := 100 * float64(hp.LeakageEnergy(arrayBytes, app.Cycles)) /
			float64(total[memtech.CellHP])
		saving := stats.PercentSaving(float64(total[memtech.CellHP]), float64(total[memtech.CellLSTP]))
		savings = append(savings, saving)
		leakShares = append(leakShares, leakShare)
		table.AddRow(app.Name, float64(total[memtech.CellHP]), float64(total[memtech.CellLOP]),
			float64(total[memtech.CellLSTP]), string(best), leakShare, saving)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("65 nm, 64 KiB array: leakage is %.1f%% of hp total energy (avg); lstp cuts total energy %.1f%% avg vs hp (paper: leakage dominates scaled nodes)",
			stats.Mean(leakShares), stats.Mean(savings)),
	}, nil
}

// idleDistributions synthesizes the named idle-interval populations E22
// sweeps, seeded per distribution name so each is independent of the
// others and of evaluation order (the fault injector's construction).
func idleDistributions() []struct {
	name string
	idle []uint64
} {
	draw := func(name string, n int, gen func(r *rand.Rand) uint64) []uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "e22|%s", name)
		r := rand.New(rand.NewSource(int64(h.Sum64())))
		out := make([]uint64, n)
		for i := range out {
			out[i] = 1 + gen(r)
		}
		return out
	}
	exp := func(mean float64) func(r *rand.Rand) uint64 {
		return func(r *rand.Rand) uint64 { return uint64(r.ExpFloat64() * mean) }
	}
	return []struct {
		name string
		idle []uint64
	}{
		// A busy memory: short gaps only, gating should stay away.
		{"busy", draw("busy", 2000, func(r *rand.Rand) uint64 { return uint64(r.Intn(50)) })},
		// Exponential gaps around the break-even scale.
		{"exp-250", draw("exp-250", 2000, exp(250))},
		// Bimodal: mostly short bursts, a long-idle tail (the classic
		// interactive-device shape gating was invented for).
		{"bimodal", draw("bimodal", 2000, func(r *rand.Rand) uint64 {
			if r.Intn(5) == 0 {
				return 500 + uint64(r.Intn(4500))
			}
			return uint64(r.Intn(20))
		})},
		// Idle-heavy: long exponential gaps, gating's best case.
		{"idle-heavy", draw("idle-heavy", 500, exp(4000))},
	}
}

// runE22 measures where power gating breaks even: for each idle-interval
// distribution it compares ungated leakage against the oracle policy
// (gate exactly the intervals longer than break-even — never loses) and
// the reactive timeout policy (gate after break-even cycles of
// idleness — pays the wake cost on intervals that die just after the
// threshold), wake penalties included in both.
func runE22() (*Result, error) {
	m, err := memtech.FromPreset("sram-lstp-gated-65")
	if err != nil {
		return nil, err
	}
	const arrayBytes = 16 << 10
	g := m.Gating(arrayBytes)

	table := stats.NewTable("distribution", "intervals", "ungated", "oracle", "timeout",
		"oracle save %", "timeout save %", "wakes", "stall cycles")
	var oracleSaves, timeoutSaves []float64
	for _, d := range idleDistributions() {
		oracle := g.OracleGated(d.idle)
		timeout := g.TimeoutGated(d.idle, uint64(g.BreakEven()))
		oracleSaves = append(oracleSaves, oracle.Saving())
		timeoutSaves = append(timeoutSaves, timeout.Saving())
		table.AddRow(d.name, len(d.idle), float64(oracle.Ungated), float64(oracle.Gated),
			float64(timeout.Gated), oracle.Saving(), timeout.Saving(),
			oracle.Wakes, oracle.WakeStallCycles)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("break-even %.0f idle cycles (wake %d cycles); oracle gating saves %.1f%% avg static energy, reactive timeout %.1f%% (paper: CACTI-style %v%% perf-loss budget)",
			g.BreakEven(), g.WakeLatency, stats.Mean(oracleSaves), stats.Mean(timeoutSaves),
			100*m.Cfg.PowerGatingPerformanceLoss),
	}, nil
}

// runE23 drives each app's L1 miss traffic into the banked DRAM model at
// 1–8 banks and reports row-buffer behaviour and energy: banking turns
// row conflicts back into hits (each bank keeps its own row open) at the
// cost of per-bank background power, so the energy-optimal bank count is
// a property of the traffic's row locality, not a constant.
func runE23() (*Result, error) {
	apps, err := workloads.Traces(1, memtechKernels...)
	if err != nil {
		return nil, err
	}
	cfg, err := memtech.Preset("dram-ddr3-65")
	if err != nil {
		return nil, err
	}
	// Page interleaving at L1-line granularity: a 1 KiB page keeps the
	// row/bank structure visible to kilobyte-scale kernel footprints.
	cfg.PageSize = 1024

	table := stats.NewTable("app", "banks", "lines", "row hit %", "conflicts", "energy", "vs 1 bank %")
	var bestSavings []float64
	for _, app := range apps {
		miss, cst, err := icache.MissTraffic(app.Trace, icache.Config{
			Sets: 64, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true,
		})
		if err != nil {
			return nil, err
		}
		if miss.Len() == 0 {
			continue
		}
		var oneBank float64
		best := 0.0
		for _, banks := range []int{1, 2, 4, 8} {
			bc := cfg
			bc.UCABankCount = banks
			m, err := memtech.New(energy.DefaultMemoryModel(), bc)
			if err != nil {
				return nil, err
			}
			d, err := memtech.NewDRAM(m)
			if err != nil {
				return nil, err
			}
			st := d.Replay(miss)
			e := float64(d.Energy(st, app.Cycles))
			if banks == 1 {
				oneBank = e
			}
			saving := stats.PercentSaving(oneBank, e)
			if saving > best {
				best = saving
			}
			table.AddRow(app.Name, banks, cst.Refills+cst.WriteBacks,
				100*st.HitRate(), st.RowConflicts, e, saving)
		}
		bestSavings = append(bestSavings, best)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("banking the DRAM recovers row locality: best bank count saves %.1f%% avg main-memory energy vs a single bank (paper: row conflicts become open-row hits at standby-power cost)",
			stats.Mean(bestSavings)),
	}, nil
}
