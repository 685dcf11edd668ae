// Package lpmem ties the library's subsystems into the twenty-six
// reproducible experiments E1..E26: the DATE'03 low-power track's
// abstracts and the memory-technology and NUCA extensions (see DESIGN.md
// for the full index). Each experiment regenerates one abstract's
// headline table; the benchmarks in bench_test.go and the lpmem CLI both
// drive this registry.
package lpmem

import (
	"fmt"

	"lpmem/internal/stats"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// Result is the outcome of one experiment run.
type Result struct {
	// Table is the regenerated paper-style table.
	Table *stats.Table
	// Summary is the headline comparison against the paper's claim.
	Summary string
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (E1..E26).
	ID string
	// Title is a human-readable name.
	Title string
	// PaperClaim is the abstract's headline number.
	PaperClaim string
	// Run regenerates the table.
	Run func() (*Result, error)
}

// Experiments returns the full registry in ID order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:         "E1",
			Title:      "Address clustering before memory partitioning",
			PaperClaim: "avg -25% energy (max -57%) vs partitioning alone (1B.1)",
			Run:        runE1,
		},
		{
			ID:         "E2",
			Title:      "Differential cache-line compression",
			PaperClaim: "-10..22% (VLIW Lx), -11..14% (MIPS) memory-system energy (1B.2)",
			Run:        runE2,
		},
		{
			ID:         "E3",
			Title:      "Instruction-memory encoding transformations",
			PaperClaim: "up to -50% fetch-path bus transitions (1B.3)",
			Run:        runE3,
		},
		{
			ID:         "E4",
			Title:      "Two-level data scheduling on a multi-context reconfigurable array",
			PaperClaim: "reduced data + reconfiguration energy (1B.4)",
			Run:        runE4,
		},
		{
			ID:         "E5",
			Title:      "Shielded low-overhead address-bus encoding",
			PaperClaim: "full shielding with 1 extra line, ~0.36% perf cost (6F.3)",
			Run:        runE5,
		},
		{
			ID:         "E6",
			Title:      "Chromatic encoding of DVI pixel streams",
			PaperClaim: "up to -75% transitions, 3 redundant bits per pixel (8B.3)",
			Run:        runE6,
		},
		{
			ID:         "E7",
			Title:      "Way determination for high-associativity D-caches",
			PaperClaim: "-66/-72/-76% cache power at 8/16/32 ways (10E.4)",
			Run:        runE7,
		},
		{
			ID:         "E8",
			Title:      "Lifetime-aware memory-hierarchy layer assignment",
			PaperClaim: "about half the hierarchy energy (10F.1)",
			Run:        runE8,
		},
		{
			ID:         "E9",
			Title:      "Stack-based on-chip memory",
			PaperClaim: "up to -32.5% L1 D-cache energy (10F.3)",
			Run:        runE9,
		},
		{
			ID:         "E10",
			Title:      "Energy-aware NoC mapping with routing flexibility",
			PaperClaim: "-51.7% communication energy vs ad-hoc mapping (8B.2)",
			Run:        runE10,
		},
		{
			ID:         "E11",
			Title:      "DVS on conditional task graphs + GA mapping",
			PaperClaim: "-24% (DVS), up to -51% (mapping+DVS) (2B.2)",
			Run:        runE11,
		},
		{
			ID:         "E12",
			Title:      "Multiplierless filter synthesis with MRP transformation",
			PaperClaim: "-70% adders vs direct form, -16% vs CSE (8B.4)",
			Run:        runE12,
		},
		{
			ID:         "E13",
			Title:      "Selective energy masking of DES encryption",
			PaperClaim: "masks critical ops with 83% less energy than dual-rail (2B.1)",
			Run:        runE13,
		},
		{
			ID:         "E14",
			Title:      "Delay-uncertainty-driven clock tree topology",
			PaperClaim: "up to -90% uncertainty on critical paths, -48% via layout (1F.4)",
			Run:        runE14,
		},
		{
			ID:         "E15",
			Title:      "Statistical timing analysis using linear-time bounds",
			PaperClaim: "provable lower/upper delay bounds with small error (1F.3)",
			Run:        runE15,
		},
		{
			ID:         "E16",
			Title:      "Exact BDD minimization with combined lower bounds",
			PaperClaim: "combined bounds avoid unnecessary B&B computations (8D.2)",
			Run:        runE16,
		},
		{
			ID:         "E17",
			Title:      "High-bandwidth pipelined banked caches",
			PaperClaim: "+40-50% MOPS over conventional caches (8E.1)",
			Run:        runE17,
		},
		{
			ID:         "E18",
			Title:      "Scan test-data compression: don't-care LZW + stitching",
			PaperClaim: "high LZW ratios from don't-cares (2C.3); test-time cuts with no hardware (2C.1)",
			Run:        runE18,
		},
		{
			ID:         "E19",
			Title:      "Analytical cache design-space exploration",
			PaperClaim: "directly computes qualifying cache configs, avoiding slow iteration (8A.1)",
			Run:        runE19,
		},
		{
			ID:         "E20",
			Title:      "Energy-aware adaptive checkpointing",
			PaperClaim: "lower power and higher timely-completion likelihood under faults (9E.3)",
			Run:        runE20,
		},
		{
			ID:         "E21",
			Title:      "SRAM cell-type energy under leakage-dominated scaling",
			PaperClaim: "leakage dominates scaled nodes; low-standby cells invert the energy ranking (arXiv 1805.09127)",
			Run:        runE21,
		},
		{
			ID:         "E22",
			Title:      "Power-gating break-even vs idle-interval distribution",
			PaperClaim: "gating pays only past a wake-cost break-even idle interval (CACTI power-gating modes)",
			Run:        runE22,
		},
		{
			ID:         "E23",
			Title:      "DRAM row-buffer locality vs bank count",
			PaperClaim: "banking converts row conflicts to open-row hits at standby-power cost (arXiv 1805.09127)",
			Run:        runE23,
		},
		{
			ID:         "E24",
			Title:      "Shared-LLC sensitivity to CMP sharing patterns",
			PaperClaim: "shared working sets keep one LLC copy for all cores; private sets split capacity (arXiv 2201.00774)",
			Run:        runE24,
		},
		{
			ID:         "E25",
			Title:      "Static vs distance-aware NUCA bank mapping",
			PaperClaim: "bank distance is a first-order NUCA latency term; locality mapping recovers it (arXiv 2201.00774)",
			Run:        runE25,
		},
		{
			ID:         "E26",
			Title:      "Compression policy vs NUCA effective capacity",
			PaperClaim: "line compression enlarges effective LLC capacity, converting misses to hits (arXiv 2201.00774)",
			Run:        runE26,
		},
	}
}

// ByID returns one experiment from the registry.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("lpmem: unknown experiment %q", id)
}

// composites are the multi-phase applications of the 1B.1 evaluation
// (full embedded programs with many data structures of diverse heat),
// each a list of kernels that run back to back in one address space.
var composites = []struct {
	name  string
	parts []string
}{
	{"app-media", []string{"fir", "dct", "adpcm"}},
	{"app-net", []string{"crc32", "strsearch", "histogram", "hashlookup"}},
	{"app-ptr", []string{"listchase", "spmv", "fibcall"}},
	{"app-rtos", []string{"fibcall", "qsort", "listchase", "histogram"}},
	{"app-dsp", []string{"fft", "autocorr", "huffman", "bitcount"}},
}

// compositeParts returns each composite's parts, in composites order,
// picked by name from the kernel traces the caller already ran, so no
// kernel is interpreted twice.
func compositeParts(kernels []*workloads.Result) ([][]*workloads.Result, error) {
	byName := make(map[string]*workloads.Result, len(kernels))
	for _, k := range kernels {
		byName[k.Name] = k
	}
	out := make([][]*workloads.Result, len(composites))
	for i, c := range composites {
		for _, p := range c.parts {
			k, ok := byName[p]
			if !ok {
				return nil, fmt.Errorf("lpmem: composite %s: no kernel trace %q", c.name, p)
			}
			out[i] = append(out[i], k)
		}
	}
	return out, nil
}

// compositeApps concatenates each composite's parts into one trace, for
// E9, which replays whole applications through a cache; E1 profiles the
// parts phase by phase and builds no composite.
func compositeApps(kernels []*workloads.Result) ([]*workloads.Result, error) {
	parts, err := compositeParts(kernels)
	if err != nil {
		return nil, err
	}
	out := make([]*workloads.Result, len(parts))
	for i, ps := range parts {
		out[i] = &workloads.Result{Name: composites[i].name, Trace: trace.New(1 << 16)}
		out[i].Append(ps...)
	}
	return out, nil
}

// profileApps synthesizes address profiles with the statistical shape of
// large embedded applications (a small hot working set scattered through
// a large cold image), where the 1B.1 abstract reports its biggest wins.
func profileApps() []*workloads.Result {
	mk := func(name string, seed int64, image uint32, hotEvery int, hotWeight float64, n int) *workloads.Result {
		var regions []trace.Region
		const blk = 1024
		for i := uint32(0); i < image/blk; i++ {
			if int(i)%hotEvery == 0 {
				// Hot region: frequently and sequentially walked
				// (a live buffer or table).
				regions = append(regions, trace.Region{
					Base: i * blk, Size: blk, Weight: hotWeight, Stride: 4,
				})
			} else {
				// Cold region: occasional scattered touches, so the
				// touched image stays large (heap, rarely used state).
				regions = append(regions, trace.Region{
					Base: i * blk, Size: blk, Weight: 1, Stride: 0,
				})
			}
		}
		tr := trace.Synthesize(trace.SynthConfig{Seed: seed, N: n, Regions: regions, WriteFraction: 0.3})
		return &workloads.Result{Name: name, Trace: tr, Cycles: uint64(n) * 3}
	}
	return []*workloads.Result{
		mk("prof-sparse", 11, 128<<10, 16, 150, 100_000),
		mk("prof-medium", 12, 128<<10, 8, 50, 100_000),
		mk("prof-dense", 13, 64<<10, 4, 8, 100_000),
	}
}
