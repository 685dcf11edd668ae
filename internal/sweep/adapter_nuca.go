package sweep

import (
	"fmt"
	"sync"

	"lpmem/internal/nuca"
	"lpmem/internal/trace"
)

// nucaTraceCache holds one interleaved reference trace per core count,
// built on first use. Guarded by a mutex because the executor calls Run
// from concurrent pool workers; the traces themselves are read-only
// after construction, and seeding by core count alone keeps Run a pure
// function of the point.
var nucaTraceCache = struct {
	sync.Mutex
	byCores map[int]*trace.Trace
}{byCores: map[int]*trace.Trace{}}

// nucaReferenceTrace returns the shared-pattern CMP workload for a core
// count: the sharing shape a shared LLC exists for, with enough private
// traffic that banking and capacity still matter.
func nucaReferenceTrace(cores int) (*trace.Trace, error) {
	nucaTraceCache.Lock()
	defer nucaTraceCache.Unlock()
	if tr, ok := nucaTraceCache.byCores[cores]; ok {
		return tr, nil
	}
	tr, err := trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed:            axisRand(1, "nuca", "trace").Int63() + int64(cores),
		Cores:           cores,
		AccessesPerCore: 4000,
		Pattern:         trace.SharingShared,
		PrivateBytes:    16 << 10,
		SharedBytes:     32 << 10,
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: nuca reference trace: %w", err)
	}
	nucaTraceCache.byCores[cores] = tr
	return tr, nil
}

// nucaAdapter sweeps the shared-LLC CMP scenario of E24–E26: core count
// x bank count x compression policy x bank-mapping policy, at a fixed
// 32 KiB aggregate capacity (more banks means smaller banks, not more
// cache). Energy is the full bank+NoC+memory total, latency the summed
// access cycles, and area the data arrays plus the compressed cache's
// extra tags and per-bank (de)compressors.
type nucaAdapter struct{}

func (nucaAdapter) Name() string { return "nuca" }

func (nucaAdapter) Describe() string {
	return "shared CMP LLC: cores x banks x compression x bank mapping (internal/nuca)"
}

func (nucaAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "cores", Kind: IntAxis, Min: 1, Max: 8, Steps: 4},
		{Name: "banks", Kind: IntAxis, Min: 1, Max: 16, Steps: 5},
		{Name: "compression", Kind: EnumAxis, Values: []string{"none", "diff", "ideal"}},
		{Name: "mapping", Kind: EnumAxis, Values: []string{"static", "distance"}},
	}}
}

// nucaTotalSets fixes the aggregate geometry: 256 sets x 4 ways x 32 B
// lines = 32 KiB regardless of banking.
const nucaTotalSets = 256

// nucaCompressorArea is the per-bank silicon cost proxy of the
// (de)compression units on a compressed point.
const nucaCompressorArea = 256.0

func (a nucaAdapter) Run(p Point) (Metrics, error) {
	cores := p.Int("cores")
	banks := p.Int("banks")
	tr, err := nucaReferenceTrace(cores)
	if err != nil {
		return Metrics{}, err
	}
	setsPerBank := nucaTotalSets / banks
	if setsPerBank < 1 {
		setsPerBank = 1
	}
	cfg := nuca.Config{
		Cores:       cores,
		Banks:       banks,
		SetsPerBank: setsPerBank,
		Mapping:     nuca.MappingPolicy(p.Enum("mapping")),
		Compression: nuca.CompressionPolicy(p.Enum("compression")),
	}
	llc, err := nuca.New(cfg)
	if err != nil {
		return Metrics{}, err
	}
	st := llc.Replay(tr)

	// Area: data arrays, plus tags (4 B per tag entry; the compressed
	// cache carries TagFactor x as many), plus compressor units.
	tagEntries := banks * setsPerBank * nuca.Ways
	if cfg.Compression != nuca.CompNone {
		tagEntries *= nuca.TagFactor
	}
	area := float64(cfg.CapacityBytes()) + 4*float64(tagEntries)
	if cfg.Compression != nuca.CompNone {
		area += nucaCompressorArea * float64(banks)
	}
	return Metrics{
		EnergyPJ: float64(st.TotalEnergy()),
		Latency:  float64(st.Latency),
		Area:     area,
	}, nil
}
