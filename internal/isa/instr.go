// Package isa implements µRISC, a small load/store register architecture
// with a five-stage-pipeline cost model. It stands in for the ARM7 /
// MIPS-class embedded cores used in the DATE'03 evaluations: the
// optimizations under study consume the *address and data streams* a core
// emits, and µRISC produces real streams by executing real kernels (see
// internal/workloads).
//
// The package provides three pieces: an instruction set (this file), an
// assembler with labels (asm.go) and an interpreter that executes programs
// over a trace.Memory image while emitting an instrumented memory trace
// (cpu.go).
//
//lint:hotpath
package isa

import "fmt"

// Op is a µRISC opcode.
type Op uint8

// Instruction opcodes. Register-register ALU ops take (Rd, Rs1, Rs2);
// immediate forms take (Rd, Rs1, Imm). Memory ops use Rs1 as the base
// register and Imm as the byte offset.
const (
	OpNop Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSra // arithmetic shift right
	OpSlt // set-less-than (signed)
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri
	OpSlti
	OpLui  // Rd = Imm << 16
	OpMovi // Rd = Imm (full 32-bit, assembler-level convenience)
	OpLw
	OpLh
	OpLb
	OpSw
	OpSh
	OpSb
	OpBeq
	OpBne
	OpBlt  // signed
	OpBge  // signed
	OpJal  // jump and link: LR = PC+4, PC = target
	OpJr   // jump register: PC = Rs1
	OpPush // push Rs1 on the stack
	OpPop  // pop into Rd
	OpHalt
)

var opNames = map[Op]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpSra: "sra", OpSlt: "slt", OpAddi: "addi", OpAndi: "andi",
	OpOri: "ori", OpXori: "xori", OpShli: "shli", OpShri: "shri",
	OpSlti: "slti", OpLui: "lui", OpMovi: "movi", OpLw: "lw", OpLh: "lh",
	OpLb: "lb", OpSw: "sw", OpSh: "sh", OpSb: "sb", OpBeq: "beq",
	OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpJal: "jal", OpJr: "jr",
	OpPush: "push", OpPop: "pop", OpHalt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Reg is a register number, 0..15. By software convention r13 is SP,
// r14 is LR and r15 is never allocated by the workloads (scratch).
type Reg uint8

// Register conventions used by the assembler and the workloads.
const (
	SP Reg = 13 // stack pointer
	LR Reg = 14 // link register
	AT Reg = 15 // assembler temporary
)

// NumRegs is the size of the register file.
const NumRegs = 16

// Instr is one decoded µRISC instruction. µRISC is a fixed-width 4-byte
// ISA: instruction addresses advance by 4.
type Instr struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32 // immediate or resolved branch/jump target (byte address)
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpHalt:
		return in.Op.String()
	case OpLw, OpLh, OpLb:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
	case OpSw, OpSh, OpSb:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, %#x", in.Op, in.Rs1, in.Rs2, uint32(in.Imm))
	case OpJal:
		return fmt.Sprintf("%s %#x", in.Op, uint32(in.Imm))
	case OpJr:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case OpPush:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case OpPop:
		return fmt.Sprintf("%s r%d", in.Op, in.Rd)
	case OpMovi, OpLui:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// isBranch reports whether the op is a conditional branch.
func (o Op) isBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// isLoad reports whether the op reads data memory.
func (o Op) isLoad() bool {
	switch o {
	case OpLw, OpLh, OpLb, OpPop:
		return true
	}
	return false
}
