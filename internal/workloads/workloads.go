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
	"slices"

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

// Result bundles the outputs of a kernel run: the kernel's name and data
// regions, its memory trace and its cycle and retired-instruction counts.
// Results are shared (a name repeated in one Traces call, the parts of
// several applications), so treat one as read-only; Append builds a
// multi-kernel application into a Result of its own.
type Result struct {
	Name    string
	Trace   *trace.Trace
	Cycles  uint64
	Retired uint64
	Arrays  []Array
}

// Run executes the instance on a fresh CPU with tracing enabled, verifies
// the result and returns the run's Result.
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
	return &Result{Name: inst.Name, Trace: t, Cycles: cpu.Cycles, Retired: cpu.Instructions, Arrays: inst.Arrays}, nil
}

// Traces builds and runs the named kernels at seed and returns their
// results in request order. Each distinct name is interpreted once per
// call: a repeated name returns the same *Result. With no names it runs
// every kernel, in All order.
func Traces(seed int64, names ...string) ([]*Result, error) {
	if len(names) == 0 {
		all := All()
		names = make([]string, len(all))
		for i, k := range all {
			names[i] = k.Name
		}
	}
	out := make([]*Result, len(names))
	for i, name := range names {
		if j := slices.Index(names[:i], name); j >= 0 {
			out[i] = out[j]
			continue
		}
		k, err := ByName(name)
		if err != nil {
			return nil, err
		}
		if out[i], err = Run(k.Build(seed)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Append concatenates parts onto r as phases of one application running
// back to back in one address space: their traces follow r's, cycles and
// retired counts add up, and each part's arrays join r's named
// "<kernel>.<array>". The parts are not modified. The zero Result is an
// empty application: its first Append allocates the trace at that call's
// combined length, so parts appended in one call are copied once.
func (r *Result) Append(parts ...*Result) {
	if r.Trace == nil {
		n := 0
		for _, p := range parts {
			n += p.Trace.Len()
		}
		r.Trace = trace.New(n)
	}
	for _, p := range parts {
		r.Trace.Accesses = append(r.Trace.Accesses, p.Trace.Accesses...)
		r.Cycles += p.Cycles
		r.Retired += p.Retired
		for _, a := range p.Arrays {
			r.Arrays = append(r.Arrays, Array{Name: p.Name + "." + a.Name, Base: a.Base, Size: a.Size})
		}
	}
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
