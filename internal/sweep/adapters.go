package sweep

import (
	"fmt"
	"math/bits"
	"sync"

	"lpmem/internal/buscode"
	"lpmem/internal/cache"
	"lpmem/internal/energy"
	"lpmem/internal/partition"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// The adapters evaluate every point against one shared reference
// workload: the data accesses of a fixed multi-kernel application
// (seed 1), merged exactly like the E8 composite apps. Building it costs
// a few interpreter runs, so it is computed once and shared; the trace is
// read-only after construction.
var referenceTrace = sync.OnceValues(func() (*refWorkload, error) {
	parts, err := workloads.Traces(1, "fir", "dct", "adpcm", "crc32")
	if err != nil {
		return nil, fmt.Errorf("sweep: reference workload: %w", err)
	}
	var app workloads.Result
	app.Append(parts...)
	return &refWorkload{data: app.Trace.Data(), cycles: app.Cycles}, nil
})

type refWorkload struct {
	data   *trace.Trace
	cycles uint64
}

// mainMemoryBytes sizes the flat backing store the cache adapters charge
// refills against (a 1 MiB off-chip-class SRAM in the energy model).
const mainMemoryBytes = 1 << 20

// banksAdapter sweeps the multi-bank partitioning substrate of E1
// (DATE'03 1B.1): the bank budget and the partition block granularity.
// Energy comes from the exact DP optimizer; the latency proxy charges
// every access the decoder depth the bank budget was provisioned for;
// area is the physical (power-of-two-rounded) SRAM actually allocated.
type banksAdapter struct{}

func (banksAdapter) Name() string { return "banks" }

func (banksAdapter) Describe() string {
	return "memory bank partitioning: bank budget x block granularity (internal/partition)"
}

func (banksAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "banks", Kind: IntAxis, Min: 1, Max: 32},
		{Name: "block", Kind: IntAxis, Min: 16, Max: 1024, Steps: 7},
	}}
}

func (banksAdapter) ColumnAxis() string { return "banks" }

func (a banksAdapter) Run(p Point) (Metrics, error) { return runOne(a, p) }

// RunColumn builds the block size's spec once and answers every bank
// budget of the column from one partition DP.
func (banksAdapter) RunColumn(ps []Point) ([]Metrics, error) {
	maxBanks, err := budgetColumn(ps)
	if err != nil {
		return nil, err
	}
	ref, err := referenceTrace()
	if err != nil {
		return nil, err
	}
	spec, _, err := partition.SpecFromTrace(ref.data, uint32(ps[0].Int("block")), ref.cycles)
	if err != nil {
		return nil, err
	}
	parts, es, err := partition.OptimalUpTo(spec, maxBanks, energy.DefaultMemoryModel())
	if err != nil {
		return nil, err
	}
	accesses := float64(spec.TotalAccesses())
	out := make([]Metrics, len(ps))
	for i, p := range ps {
		banks := p.Int("banks")
		var area float64
		for _, b := range parts[banks-1].Banks {
			area += float64(b.SizeBytes)
		}
		// Provisioned decoder depth: each extra level of bank select adds
		// a fraction of a cycle to every access, whether or not the
		// optimizer used the full budget — the hardware is built for the
		// budget.
		decode := float64(bits.Len(uint(banks - 1)))
		out[i] = Metrics{EnergyPJ: float64(es[banks-1]), Latency: accesses * (1 + 0.15*decode), Area: area}
	}
	return out, nil
}

// budgetColumn checks that ps, at least one point, form one column of
// the "banks" axis with every budget at least 1, and returns the largest
// budget.
func budgetColumn(ps []Point) (int, error) {
	col := ps[0].columnKey("banks")
	most := 0
	for _, p := range ps {
		if p.columnKey("banks") != col {
			return 0, fmt.Errorf("sweep: points %q and %q differ off the banks axis", ps[0].Canonical(), p.Canonical())
		}
		banks := p.Int("banks")
		if banks < 1 {
			return 0, fmt.Errorf("sweep: bank budget %d is below 1", banks)
		}
		most = max(most, banks)
	}
	return most, nil
}

// cacheAdapter sweeps the cache geometry of E19 (DATE'03 8A.1): set
// count, associativity and line size, under a 64 KiB capacity
// constraint. Energy charges every access a parallel probe of all ways
// and every refill/write-back a per-word transfer against the main
// memory model; latency is an average-memory-access-time proxy; area is
// the data capacity.
type cacheAdapter struct{}

func (cacheAdapter) Name() string { return "cache" }

func (cacheAdapter) Describe() string {
	return "cache geometry: sets x ways x line size under a 64 KiB cap (internal/cache)"
}

func (cacheAdapter) Space() Space {
	return Space{
		Axes: []Axis{
			{Name: "sets", Kind: IntAxis, Min: 16, Max: 512, Steps: 6},
			{Name: "ways", Kind: IntAxis, Min: 1, Max: 8, Steps: 4},
			{Name: "line", Kind: IntAxis, Min: 16, Max: 64, Steps: 3},
		},
		Constraints: []Constraint{{
			Name:  "capacity <= 64 KiB",
			Allow: func(p Point) bool { return p.Int("sets")*p.Int("ways")*p.Int("line") <= 64<<10 },
		}},
	}
}

func (a cacheAdapter) Run(p Point) (Metrics, error) {
	ref, err := referenceTrace()
	if err != nil {
		return Metrics{}, err
	}
	cfg := cache.Config{
		Sets: p.Int("sets"), Ways: p.Int("ways"), LineSize: p.Int("line"),
		WriteBack: true, WriteAllocate: true,
	}
	c, err := cache.New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	st := c.Replay(ref.data)
	m := cacheSideMetrics(cfg, st)
	// Refills and write-backs move a line's words against the flat
	// main-memory model (the memhier adapter replaces this charge with
	// its banked partition's energy instead).
	mm := energy.DefaultMemoryModel()
	lineWords := float64(cfg.LineSize) / 4
	m.EnergyPJ += float64(st.Refills)*lineWords*float64(mm.ReadEnergy(mainMemoryBytes)) +
		float64(st.WriteBacks)*lineWords*float64(mm.WriteEnergy(mainMemoryBytes))
	return m, nil
}

// cacheSideMetrics converts replay statistics into the cache's own share
// of the objective triple: probe energy, an AMAT latency proxy and the
// data-array area. Memory-side energy (flat or banked) is added by the
// caller.
func cacheSideMetrics(cfg cache.Config, st cache.Stats) Metrics {
	mm := energy.DefaultMemoryModel()
	size := uint32(cfg.SizeBytes())
	wayBytes := size / uint32(cfg.Ways)
	lineWords := float64(cfg.LineSize) / 4

	// Every access probes all ways in parallel, each way sized
	// SizeBytes/Ways.
	accessE := float64(mm.ReadEnergy(wayBytes)) * float64(cfg.Ways)
	e := float64(st.Accesses) * accessE

	// AMAT proxy: one cycle per hit, a fixed main-memory penalty plus
	// the line transfer per miss.
	latency := float64(st.Accesses) + float64(st.Misses)*(10+lineWords)
	return Metrics{EnergyPJ: e, Latency: latency, Area: float64(size)}
}

// busAdapter sweeps the bus-encoding substrate of E4/E13 (DATE'03 6F.3,
// 8B.3): encoding scheme x address-stream shape. Energy counts self
// transitions plus coupling events under the bus model; latency is the
// bus cycles consumed (multi-cycle codes pay here); area is the physical
// line count.
type busAdapter struct{}

func (busAdapter) Name() string { return "bus" }

func (busAdapter) Describe() string {
	return "bus encoding: scheme x address-stream shape (internal/buscode)"
}

// busStreams names the synthetic word streams, in axis order.
var busStreams = []string{"seq", "branchy", "random", "samples"}

func (busAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "scheme", Kind: EnumAxis, Values: []string{"binary", "gray", "t0", "businvert", "shielded"}},
		{Name: "stream", Kind: EnumAxis, Values: busStreams},
	}}
}

// busWords synthesises the named 1024-word stream from a fixed seed.
func busWords(stream string) ([]uint32, error) {
	const n = 1024
	r := axisRand(1, "bus-stream:"+stream, "words")
	out := make([]uint32, n)
	switch stream {
	case "seq":
		// A pure instruction-address walk.
		for i := range out {
			out[i] = 0x1000 + 4*uint32(i)
		}
	case "branchy":
		// Sequential with a taken branch roughly every eight words.
		addr := uint32(0x1000)
		for i := range out {
			if r.Intn(8) == 0 {
				addr = uint32(r.Intn(1<<20)) &^ 3
			}
			out[i] = addr
			addr += 4
		}
	case "random":
		for i := range out {
			out[i] = r.Uint32()
		}
	case "samples":
		// Small signed 16-bit data, the typical DSP operand stream.
		for i := range out {
			out[i] = uint32(int32(r.Intn(1<<16) - 1<<15))
		}
	default:
		return nil, fmt.Errorf("sweep: unknown bus stream %q", stream)
	}
	return out, nil
}

// busEncoder builds a fresh encoder for the named scheme.
func busEncoder(scheme string) (buscode.Encoder, error) {
	switch scheme {
	case "binary":
		return &buscode.Binary{}, nil
	case "gray":
		return &buscode.Gray{}, nil
	case "t0":
		return &buscode.T0{Stride: 4}, nil
	case "businvert":
		return &buscode.BusInvert{}, nil
	case "shielded":
		return &buscode.Shielded{Stride: 4}, nil
	default:
		return nil, fmt.Errorf("sweep: unknown bus scheme %q", scheme)
	}
}

func (a busAdapter) Run(p Point) (Metrics, error) {
	words, err := busWords(p.Enum("stream"))
	if err != nil {
		return Metrics{}, err
	}
	enc, err := busEncoder(p.Enum("scheme"))
	if err != nil {
		return Metrics{}, err
	}
	m := buscode.Measure(enc, words)
	bm := energy.DefaultBusModel()
	e := float64(bm.TransitionEnergy(m.Transitions)) +
		float64(bm.PerTransition)*bm.CouplingFactor*float64(m.Couplings)
	return Metrics{EnergyPJ: e, Latency: float64(m.Cycles), Area: float64(m.Lines)}, nil
}

// memhierAdapter sweeps a two-level hierarchy: a cache in front of a
// banked main memory, jointly varying cache sets/ways and the bank
// budget. The banked memory is partitioned optimally for the cache's
// actual miss traffic — refill and write-back line transfers recorded
// through the cache hooks — so the two levels interact the way the
// dark-memory papers' hierarchies do: a bigger cache starves the banks
// of the traffic that made partitioning worthwhile.
type memhierAdapter struct{}

func (memhierAdapter) Name() string { return "memhier" }

func (memhierAdapter) Describe() string {
	return "two-level hierarchy: cache sets x ways x memory bank budget (cache + partition)"
}

func (memhierAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "sets", Kind: IntAxis, Min: 16, Max: 256, Steps: 5},
		{Name: "ways", Kind: IntAxis, Min: 1, Max: 4, Steps: 3},
		{Name: "banks", Kind: IntAxis, Min: 1, Max: 8},
	}}
}

func (memhierAdapter) ColumnAxis() string { return "banks" }

func (a memhierAdapter) Run(p Point) (Metrics, error) { return runOne(a, p) }

// RunColumn replays the column's cache geometry once and partitions its
// miss traffic for every bank budget of the column from one DP.
func (memhierAdapter) RunColumn(ps []Point) ([]Metrics, error) {
	maxBanks, err := budgetColumn(ps)
	if err != nil {
		return nil, err
	}
	ref, err := referenceTrace()
	if err != nil {
		return nil, err
	}
	cfg := cache.Config{
		Sets: ps[0].Int("sets"), Ways: ps[0].Int("ways"), LineSize: 32,
		WriteBack: true, WriteAllocate: true,
	}
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	// Record the miss traffic the banked memory actually serves: one
	// word-wide access per transferred word of every refill and
	// write-back line.
	missTraffic := trace.New(1024)
	record := func(kind trace.Kind) func(addr uint32) {
		return func(addr uint32) {
			for off := 0; off < cfg.LineSize; off += 4 {
				missTraffic.Append(trace.Access{Addr: addr + uint32(off), Width: 4, Kind: kind})
			}
		}
	}
	c.OnRefill = record(trace.Read)
	c.OnWriteBack = record(trace.Write)
	st := c.Replay(ref.data)

	var parts []partition.Partition
	var es []energy.PJ
	if missTraffic.Len() > 0 {
		spec, _, err := partition.SpecFromTrace(missTraffic, 64, ref.cycles)
		if err != nil {
			return nil, err
		}
		parts, es, err = partition.OptimalUpTo(spec, maxBanks, energy.DefaultMemoryModel())
		if err != nil {
			return nil, err
		}
	}
	side := cacheSideMetrics(cfg, st)
	out := make([]Metrics, len(ps))
	for i, p := range ps {
		banks := p.Int("banks")
		var memE, memArea float64
		if parts != nil {
			memE = float64(es[banks-1])
			for _, b := range parts[banks-1].Banks {
				memArea += float64(b.SizeBytes)
			}
		}
		m := side
		m.EnergyPJ += memE
		// The cache-side miss penalty already models transfer time; add
		// the provisioned bank-decode depth on top of every miss.
		m.Latency += float64(st.Misses) * 0.15 * float64(bits.Len(uint(banks-1)))
		m.Area += memArea
		out[i] = m
	}
	return out, nil
}
