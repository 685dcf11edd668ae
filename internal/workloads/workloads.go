// Package workloads provides the embedded benchmark kernels used by every
// experiment. Each kernel is a real µRISC program (internal/isa) with a
// deterministic data set, an initialiser and a result checker, standing in
// for the MediaBench / Ptolemy / DSPstone programs of the DATE'03
// evaluations: digital filters, transforms, codecs, sorting, hashing,
// searching and call-heavy control code.
package workloads

import (
	"fmt"
	"math/rand"

	"lpmem/internal/isa"
	"lpmem/internal/trace"
)

// Array describes a named data region of a kernel instance; the
// partitioning and layer-assignment experiments consume this metadata.
type Array struct {
	Name string
	Base uint32
	Size uint32 // bytes
}

// Instance is a ready-to-run kernel: program, data and checker.
type Instance struct {
	Name     string
	Prog     *isa.Program
	Init     func(c *isa.CPU)
	Check    func(c *isa.CPU) error
	MaxSteps int
	Arrays   []Array
}

// Kernel is a named kernel generator. Build must be deterministic in seed.
type Kernel struct {
	Name  string
	Build func(seed int64) *Instance
}

// All returns the full kernel suite in a stable order.
func All() []Kernel {
	return []Kernel{
		{Name: "fir", Build: FIR},
		{Name: "matmul", Build: MatMul},
		{Name: "dct", Build: DCT},
		{Name: "adpcm", Build: ADPCM},
		{Name: "histogram", Build: Histogram},
		{Name: "sort", Build: InsertionSort},
		{Name: "crc32", Build: CRC32},
		{Name: "strsearch", Build: StringSearch},
		{Name: "autocorr", Build: AutoCorr},
		{Name: "fibcall", Build: FibCall},
		{Name: "hashlookup", Build: HashLookup},
		{Name: "listchase", Build: ListChase},
		{Name: "spmv", Build: SpMV},
		{Name: "qsort", Build: QSort},
		{Name: "huffman", Build: Huffman},
		{Name: "dijkstra", Build: Dijkstra},
		{Name: "fft", Build: FFT},
		{Name: "bitcount", Build: BitCount},
	}
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("workloads: unknown kernel %q", name)
}

// Result bundles the outputs of a kernel run.
type Result struct {
	Trace   *trace.Trace
	Cycles  uint64
	Retired uint64
}

// Run executes the instance on a fresh CPU with tracing enabled, verifies
// the result and returns the trace and cycle count.
func Run(inst *Instance) (*Result, error) {
	cpu := isa.NewCPU(inst.Prog)
	if inst.Init != nil {
		inst.Init(cpu)
	}
	t, err := cpu.RunTraced(inst.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", inst.Name, err)
	}
	if inst.Check != nil {
		if err := inst.Check(cpu); err != nil {
			return nil, fmt.Errorf("workloads: %s: check failed: %w", inst.Name, err)
		}
	}
	return &Result{Trace: t, Cycles: cpu.Cycles, Retired: cpu.Instructions}, nil
}

// rng returns the deterministic random source used by all kernels.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// words16 generates n small signed values fitting in 16 bits, as typical
// DSP sample data.
func words16(r *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(int32(r.Intn(65536) - 32768))
	}
	return out
}
