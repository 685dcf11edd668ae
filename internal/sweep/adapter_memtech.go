package sweep

import (
	"fmt"
	"sync"

	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/memtech"
	"lpmem/internal/trace"
)

// memtechNodes maps the technology axis labels to process nodes in µm.
// Enum labels keep the grid on the three calibrated ITRS nodes, where a
// stepped integer axis over 65..180 nm would land on uncalibrated
// geometric intermediates.
var memtechNodes = map[string]float64{
	"180": 0.18,
	"90":  0.09,
	"65":  0.065,
}

// memtechRef is the precomputed, read-only evaluation context every
// memtech point shares: the reference workload's on-chip access mix, the
// L1 miss traffic its banked DRAM serves, and the idle-interval trace
// the gating policies are priced over.
var memtechRef = sync.OnceValues(func() (*memtechWorkload, error) {
	ref, err := referenceTrace()
	if err != nil {
		return nil, err
	}
	w := &memtechWorkload{cycles: ref.cycles}
	for _, a := range ref.data.Accesses {
		switch a.Kind {
		case trace.Read:
			w.reads++
		case trace.Write:
			w.writes++
		}
	}
	// The DRAM behind the SRAM serves line-granular miss traffic of a
	// fixed L1 geometry (the same organization E23 prices), so the banks
	// axis sees realistic row-locality, not raw word accesses.
	w.miss, _, err = cache.MissTraffic(ref.data, cache.Config{
		Sets: 64, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true,
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: memtech reference cache: %w", err)
	}
	// Idle intervals for the gating machine: exponential gaps (mean 400
	// cycles, around the lstp break-even scale) drawn until they tile the
	// run, from an order-independent seeded source.
	r := axisRand(1, "memtech", "idle")
	var total uint64
	for total < ref.cycles {
		t := 1 + uint64(r.ExpFloat64()*400)
		w.idle = append(w.idle, t)
		total += t
	}
	return w, nil
})

type memtechWorkload struct {
	reads, writes uint64
	cycles        uint64
	miss          *trace.Trace
	idle          []uint64
}

// memtechAdapter sweeps the technology layer of E21–E23: process node x
// SRAM cell type x power-gating mode x DRAM bank count, for a fixed
// memory organization (a 64 KiB on-chip SRAM serving the reference
// workload, a banked DRAM serving its L1 miss traffic). The node and
// cell axes trade dynamic energy against leakage and speed, the gating
// axis buys static power back for wake stalls (oracle policy over the
// shared idle trace), and the banks axis replays E23's row-buffer
// trade-off behind it.
type memtechAdapter struct{}

func (memtechAdapter) Name() string { return "memtech" }

func (memtechAdapter) Describe() string {
	return "memory technology: node x cell type x power gating x DRAM banks (internal/memtech)"
}

func (memtechAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "tech", Kind: EnumAxis, Values: []string{"180", "90", "65"}},
		{Name: "cell", Kind: EnumAxis, Values: []string{"hp", "lop", "lstp"}},
		{Name: "gating", Kind: EnumAxis, Values: []string{"off", "array", "full"}},
		{Name: "banks", Kind: IntAxis, Min: 1, Max: 8, Steps: 4},
	}}
}

// memtechSRAMBytes is the fixed on-chip array capacity every point
// prices (the E21 array size).
const memtechSRAMBytes = 64 << 10

// memtechPerfLoss is the CACTI performance-loss budget of the gated
// points (the preset value E22 uses).
const memtechPerfLoss = 0.01

func (a memtechAdapter) Run(p Point) (Metrics, error) {
	w, err := memtechRef()
	if err != nil {
		return Metrics{}, err
	}
	node, ok := memtechNodes[p.Enum("tech")]
	if !ok {
		return Metrics{}, fmt.Errorf("sweep: unknown technology node %q", p.Enum("tech"))
	}
	cell := memtech.CellType(p.Enum("cell"))
	cfg := memtech.Config{
		Technology: node, DataCell: cell, PeripheralCell: cell,
		UCABankCount: 1, PageSize: 1024, BurstLength: 8,
	}
	switch p.Enum("gating") {
	case "off":
	case "array":
		cfg.ArrayPowerGating = true
		cfg.PowerGatingPerformanceLoss = memtechPerfLoss
	case "full":
		cfg = cfg.WithAllGating(memtechPerfLoss)
	default:
		return Metrics{}, fmt.Errorf("sweep: unknown gating mode %q", p.Enum("gating"))
	}
	m, err := memtech.New(energy.DefaultMemoryModel(), cfg)
	if err != nil {
		return Metrics{}, err
	}

	// SRAM side: dynamic energy for the access mix, static energy from
	// the oracle gating policy over the shared idle trace (with gating
	// off the machine is inert and Gated equals the full ungated energy).
	g := m.Gating(memtechSRAMBytes)
	rep := g.OracleGated(w.idle)
	e := float64(m.DynamicEnergy(memtechSRAMBytes, w.reads, w.writes) + rep.Gated)
	latency := float64(w.reads+w.writes)*m.AccessCycles() + float64(rep.WakeStallCycles)
	area := memtechSRAMBytes * m.AreaScale()

	// DRAM side: the banks axis varies the main memory behind the SRAM.
	// Its cells stay lop (the DDR3-shaped preset) — DRAM periphery does
	// not follow the SRAM cell library — but it shares the node.
	dcfg := memtech.Config{
		Technology: node, DataCell: memtech.CellLOP, PeripheralCell: memtech.CellLOP,
		UCABankCount: p.Int("banks"), PageSize: 1024, BurstLength: 8,
	}
	dm, err := memtech.New(energy.DefaultMemoryModel(), dcfg)
	if err != nil {
		return Metrics{}, err
	}
	d, err := memtech.NewDRAM(dm)
	if err != nil {
		return Metrics{}, err
	}
	st := d.Replay(w.miss)
	e += float64(d.Energy(st, w.cycles))
	latency += float64(d.Latency(st))
	// Row buffers are the banked DRAM's on-die SRAM cost.
	area += float64(p.Int("banks")) * float64(dcfg.PageSize)

	return Metrics{EnergyPJ: e, Latency: latency, Area: area}, nil
}
