package isa

import (
	"fmt"
	"sync"

	"lpmem/internal/trace"
)

// Default memory-map constants. The map is deliberately compact so that
// partitioning experiments see a realistic embedded address space.
const (
	DefaultTextBase  = 0x0000_0000
	DefaultDataBase  = 0x0001_0000
	DefaultStackTop  = 0x000F_FFF0
	DefaultStackSize = 0x0001_0000
)

// CPU executes a µRISC program with a simple five-stage-pipeline cost
// model: 1 cycle per instruction, +1 load-use bubble per load, +2 flush
// per taken branch/jump, +2 for multiply, +16 for divide.
type CPU struct {
	// Mem is the backing memory, exposed so tests and workloads can
	// pre-load data and inspect results.
	Mem trace.Memory
	// Regs is the architectural register file.
	Regs [NumRegs]uint32
	// PC is the current program counter (byte address).
	PC uint32
	// TextBase is where the program is mapped.
	TextBase uint32
	// Trace, when non-nil, receives one Access per instruction fetch and
	// per data access. RunTraced records into a buffer of its own and
	// leaves Trace pointing at the trace it returns.
	Trace *trace.Trace
	// Cycles accumulates the pipeline cost model.
	Cycles uint64
	// Instructions counts retired instructions.
	Instructions uint64

	prog    *Program
	halted  bool
	fetched []uint32 // encoded instruction words, index-aligned with prog
}

// NewCPU creates a CPU with the default memory map and the program mapped
// at TextBase. SP is initialised to DefaultStackTop.
func NewCPU(p *Program) *CPU {
	c := &CPU{TextBase: DefaultTextBase, prog: p, PC: DefaultTextBase}
	c.Regs[SP] = DefaultStackTop
	c.fetched = make([]uint32, len(p.Instrs))
	for i, in := range p.Instrs {
		c.fetched[i] = Encode(in)
	}
	return c
}

// Encode packs an instruction into a 32-bit word:
// op(6) | rd(4) | rs1(4) | rs2(4) | imm(14, truncated).
// The encoding is used only as the *fetch value* seen by bus/encoding
// experiments; the interpreter executes the decoded form, so truncating a
// wide Movi immediate never affects semantics.
func Encode(in Instr) uint32 {
	return uint32(in.Op)<<26 |
		uint32(in.Rd)<<22 |
		uint32(in.Rs1)<<18 |
		uint32(in.Rs2)<<14 |
		uint32(in.Imm)&0x3FFF
}

// ErrRunaway is returned by Run when the step budget is exhausted before
// the program halts.
var ErrRunaway = fmt.Errorf("isa: step budget exhausted before halt")

// Run executes until Halt or until maxSteps instructions have retired.
func (c *CPU) Run(maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if c.halted {
			return nil
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	if c.halted {
		return nil
	}
	return ErrRunaway
}

func (c *CPU) record(a trace.Access) {
	if c.Trace != nil {
		c.Trace.Append(a)
	}
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.halted {
		return nil
	}
	idx := (c.PC - c.TextBase) / 4
	if idx >= uint32(len(c.prog.Instrs)) {
		return fmt.Errorf("isa: PC %#x outside program", c.PC)
	}
	in := c.prog.Instrs[idx]
	c.record(trace.Access{Addr: c.PC, Value: c.fetched[idx], Width: 4, Kind: trace.Fetch})
	nextPC := c.PC + 4
	cycles := uint64(1)

	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]

	switch in.Op {
	case OpNop:
	case OpAdd:
		c.Regs[in.Rd] = rs1 + rs2
	case OpSub:
		c.Regs[in.Rd] = rs1 - rs2
	case OpMul:
		c.Regs[in.Rd] = rs1 * rs2
		cycles += 2
	case OpDiv:
		if rs2 == 0 {
			c.Regs[in.Rd] = 0
		} else {
			c.Regs[in.Rd] = uint32(int32(rs1) / int32(rs2))
		}
		cycles += 16
	case OpRem:
		if rs2 == 0 {
			c.Regs[in.Rd] = 0
		} else {
			c.Regs[in.Rd] = uint32(int32(rs1) % int32(rs2))
		}
		cycles += 16
	case OpAnd:
		c.Regs[in.Rd] = rs1 & rs2
	case OpOr:
		c.Regs[in.Rd] = rs1 | rs2
	case OpXor:
		c.Regs[in.Rd] = rs1 ^ rs2
	case OpShl:
		c.Regs[in.Rd] = rs1 << (rs2 & 31)
	case OpShr:
		c.Regs[in.Rd] = rs1 >> (rs2 & 31)
	case OpSra:
		c.Regs[in.Rd] = uint32(int32(rs1) >> (rs2 & 31))
	case OpSlt:
		if int32(rs1) < int32(rs2) {
			c.Regs[in.Rd] = 1
		} else {
			c.Regs[in.Rd] = 0
		}
	case OpAddi:
		c.Regs[in.Rd] = rs1 + uint32(in.Imm)
	case OpAndi:
		c.Regs[in.Rd] = rs1 & uint32(in.Imm)
	case OpOri:
		c.Regs[in.Rd] = rs1 | uint32(in.Imm)
	case OpXori:
		c.Regs[in.Rd] = rs1 ^ uint32(in.Imm)
	case OpShli:
		c.Regs[in.Rd] = rs1 << (uint32(in.Imm) & 31)
	case OpShri:
		c.Regs[in.Rd] = rs1 >> (uint32(in.Imm) & 31)
	case OpSlti:
		if int32(rs1) < in.Imm {
			c.Regs[in.Rd] = 1
		} else {
			c.Regs[in.Rd] = 0
		}
	case OpLui:
		c.Regs[in.Rd] = uint32(in.Imm) << 16
	case OpMovi:
		c.Regs[in.Rd] = uint32(in.Imm)
	case OpLw:
		addr := rs1 + uint32(in.Imm)
		v := c.Mem.Load(addr, 4)
		c.Regs[in.Rd] = v
		c.record(trace.Access{Addr: addr, Value: v, Width: 4, Kind: trace.Read})
		cycles++
	case OpLh:
		addr := rs1 + uint32(in.Imm)
		v := c.Mem.Load(addr, 2)
		c.Regs[in.Rd] = v
		c.record(trace.Access{Addr: addr, Value: v, Width: 2, Kind: trace.Read})
		cycles++
	case OpLb:
		addr := rs1 + uint32(in.Imm)
		v := c.Mem.Load(addr, 1)
		c.Regs[in.Rd] = v
		c.record(trace.Access{Addr: addr, Value: v, Width: 1, Kind: trace.Read})
		cycles++
	case OpSw:
		addr := rs1 + uint32(in.Imm)
		c.Mem.Store(addr, 4, rs2)
		c.record(trace.Access{Addr: addr, Value: rs2, Width: 4, Kind: trace.Write})
	case OpSh:
		addr := rs1 + uint32(in.Imm)
		c.Mem.Store(addr, 2, rs2)
		c.record(trace.Access{Addr: addr, Value: rs2 & 0xFFFF, Width: 2, Kind: trace.Write})
	case OpSb:
		addr := rs1 + uint32(in.Imm)
		c.Mem.Store(addr, 1, rs2)
		c.record(trace.Access{Addr: addr, Value: rs2 & 0xFF, Width: 1, Kind: trace.Write})
	case OpBeq:
		if rs1 == rs2 {
			nextPC = c.TextBase + uint32(in.Imm)
			cycles += 2
		}
	case OpBne:
		if rs1 != rs2 {
			nextPC = c.TextBase + uint32(in.Imm)
			cycles += 2
		}
	case OpBlt:
		if int32(rs1) < int32(rs2) {
			nextPC = c.TextBase + uint32(in.Imm)
			cycles += 2
		}
	case OpBge:
		if int32(rs1) >= int32(rs2) {
			nextPC = c.TextBase + uint32(in.Imm)
			cycles += 2
		}
	case OpJal:
		c.Regs[LR] = nextPC
		nextPC = c.TextBase + uint32(in.Imm)
		cycles += 2
	case OpJr:
		nextPC = rs1
		cycles += 2
	case OpPush:
		c.Regs[SP] -= 4
		addr := c.Regs[SP]
		c.Mem.Store(addr, 4, rs1)
		c.record(trace.Access{Addr: addr, Value: rs1, Width: 4, Kind: trace.Write})
	case OpPop:
		addr := c.Regs[SP]
		v := c.Mem.Load(addr, 4)
		c.Regs[in.Rd] = v
		c.Regs[SP] += 4
		c.record(trace.Access{Addr: addr, Value: v, Width: 4, Kind: trace.Read})
		cycles++
	case OpHalt:
		c.halted = true
	default:
		return fmt.Errorf("isa: unknown opcode %v at PC %#x", in.Op, c.PC)
	}

	c.PC = nextPC
	c.Cycles += cycles
	c.Instructions++
	return nil
}

// recording holds the buffers RunTraced records into: each call holds
// its own, a buffer grows until it fits the largest run it has held, and
// the pool drops idle buffers at GC.
var recording = sync.Pool{New: func() any { return trace.New(4096) }}

// RunTraced runs the program to completion (up to maxSteps) and returns
// its trace. The accesses are recorded into a reused buffer and copied
// out at their exact length, so the returned trace has len == cap and
// shares no memory with the buffer or any other run. Afterwards c.Trace
// is the returned trace (nil on error), never the buffer.
func (c *CPU) RunTraced(maxSteps int) (*trace.Trace, error) {
	buf := recording.Get().(*trace.Trace)
	buf.Accesses = buf.Accesses[:0]
	c.Trace = buf
	err := c.Run(maxSteps)
	c.Trace = nil
	if err == nil {
		// make then copy from a local: the compiler fuses the pair into
		// one allocation that does not zero the part the copy fills.
		recorded := buf.Accesses
		accesses := make([]trace.Access, len(recorded))
		copy(accesses, recorded)
		c.Trace = &trace.Trace{Accesses: accesses}
	}
	recording.Put(buf)
	return c.Trace, err
}
