// Package vliw models a 4-issue VLIW embedded processor in the spirit of
// the Lx-ST200 (DATE'03 1B.2's platform): µRISC programs are executed with
// scalar semantics while an in-order bundle model computes how the
// instruction stream packs into long instruction words under slot,
// memory-port and register-dependency constraints.
//
// The model is intentionally an issue-timing overlay: architectural state
// and the emitted memory trace are identical to the scalar core, which is
// what the downstream energy experiments consume; only the cycle count
// (and therefore leakage/time-derived numbers) differs.
package vliw

import (
	"fmt"

	"lpmem/internal/isa"
	"lpmem/internal/trace"
)

// Config describes the issue resources of the machine.
type Config struct {
	// IssueWidth is the number of slots per bundle (4 for Lx-ST200).
	IssueWidth int
	// MemPorts is the number of load/store units (1 for Lx-ST200).
	MemPorts int
	// MulLatency and LoadLatency are result latencies in cycles.
	MulLatency  int
	LoadLatency int
	// BranchPenalty is the bubble cost of a taken branch.
	BranchPenalty int
}

// LxConfig returns the 4-issue configuration used by the experiments.
func LxConfig() Config {
	return Config{IssueWidth: 4, MemPorts: 1, MulLatency: 3, LoadLatency: 2, BranchPenalty: 2}
}

// Result is the outcome of a VLIW run.
type Result struct {
	// Trace is the memory trace (identical to scalar execution).
	Trace *trace.Trace
	// Cycles is the bundle-model cycle count.
	Cycles uint64
	// Bundles is the number of issued long instruction words.
	Bundles uint64
	// Instructions is the retired operation count.
	Instructions uint64
	// ScalarCycles is the cycle count of the plain five-stage model, for
	// speedup comparisons.
	ScalarCycles uint64
}

// Run executes prog on a fresh CPU (init may pre-load data) under the
// bundle model and returns trace and cycle counts. maxSteps bounds retired
// instructions.
func Run(cfg Config, prog *isa.Program, init func(*isa.CPU), maxSteps int) (*Result, error) {
	if cfg.IssueWidth <= 0 || cfg.MemPorts <= 0 {
		return nil, fmt.Errorf("vliw: invalid config %+v", cfg)
	}
	cpu := isa.NewCPU(prog)
	if init != nil {
		init(cpu)
	}
	t := trace.New(4096)
	cpu.Trace = t

	var (
		cycle     uint64 // current bundle cycle
		slotsUsed int
		memUsed   int
		bundles   uint64
		regReady  [isa.NumRegs]uint64
	)
	openBundle := func() {
		bundles++
		slotsUsed = 0
		memUsed = 0
	}
	openBundle()

	for steps := 0; steps < maxSteps; steps++ {
		if cpu.Halted() {
			break
		}
		idx := (cpu.PC - cpu.TextBase) / 4
		in, err := instrAt(prog, idx)
		if err != nil {
			return nil, err
		}

		// Earliest cycle this op can issue: after its sources are ready.
		earliest := cycle
		for _, r := range sources(in) {
			if regReady[r] > earliest {
				earliest = regReady[r]
			}
		}
		// Structural constraints: slot and memory port.
		if earliest == cycle && (slotsUsed >= cfg.IssueWidth || (in.Op.IsMem() && memUsed >= cfg.MemPorts)) {
			earliest = cycle + 1
		}
		if earliest > cycle {
			cycle = earliest
			openBundle()
		}
		slotsUsed++
		if in.Op.IsMem() {
			memUsed++
		}

		// Result latency.
		lat := uint64(1)
		switch in.Op {
		case isa.OpMul:
			lat = uint64(cfg.MulLatency)
		case isa.OpLw, isa.OpLh, isa.OpLb, isa.OpPop:
			lat = uint64(cfg.LoadLatency)
		case isa.OpDiv, isa.OpRem:
			lat = 16
		}
		if d, ok := dest(in); ok {
			regReady[d] = cycle + lat
		}
		if in.Op == isa.OpPush || in.Op == isa.OpPop {
			regReady[isa.SP] = cycle + 1
		}

		prevPC := cpu.PC
		if err := cpu.Step(); err != nil {
			return nil, err
		}
		// Taken control flow ends the bundle and pays the penalty.
		if cpu.PC != prevPC+4 {
			cycle += uint64(cfg.BranchPenalty) + 1
			openBundle()
		}
	}
	if !cpu.Halted() {
		return nil, isa.ErrRunaway
	}
	return &Result{
		Trace:        t,
		Cycles:       cycle + 1,
		Bundles:      bundles,
		Instructions: cpu.Instructions,
		ScalarCycles: cpu.Cycles,
	}, nil
}

func instrAt(p *isa.Program, idx uint32) (isa.Instr, error) {
	if idx >= uint32(len(p.Instrs)) {
		return isa.Instr{}, fmt.Errorf("vliw: PC index %d outside program", idx)
	}
	return p.Instrs[idx], nil
}

// sources returns the registers an instruction reads.
func sources(in isa.Instr) []isa.Reg {
	switch in.Op {
	case isa.OpNop, isa.OpHalt, isa.OpMovi, isa.OpLui, isa.OpJal:
		return nil
	case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpShli, isa.OpShri, isa.OpSlti,
		isa.OpLw, isa.OpLh, isa.OpLb, isa.OpJr:
		return []isa.Reg{in.Rs1}
	case isa.OpPush:
		return []isa.Reg{in.Rs1, isa.SP}
	case isa.OpPop:
		return []isa.Reg{isa.SP}
	default:
		return []isa.Reg{in.Rs1, in.Rs2}
	}
}

// dest returns the register an instruction writes, if any.
func dest(in isa.Instr) (isa.Reg, bool) {
	switch in.Op {
	case isa.OpNop, isa.OpHalt, isa.OpSw, isa.OpSh, isa.OpSb,
		isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpPush, isa.OpJr:
		return 0, false
	case isa.OpJal:
		return isa.LR, true
	default:
		return in.Rd, true
	}
}
