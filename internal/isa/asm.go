package isa

import "fmt"

// Builder assembles a µRISC program with symbolic labels. Instruction
// methods append one instruction each; Label marks the next instruction's
// address; Assemble resolves label references into byte addresses.
//
// Typical use:
//
//	b := isa.NewBuilder()
//	b.Movi(1, 0)             // i = 0
//	b.Label("loop")
//	...
//	b.Blt(1, 2, "loop")
//	b.Halt()
//	prog, err := b.Assemble()
type Builder struct {
	instrs []Instr
	labels map[string]int // label -> instruction index
	refs   []labelRef
}

type labelRef struct {
	index int // instruction needing patching
	label string
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Label binds name to the address of the next emitted instruction.
// Rebinding a name panics: duplicate labels are always a programming error
// in a hand-written kernel.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		//lint:allow panicfree duplicate label in a hand-written kernel is a programming error, per the doc comment
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = len(b.instrs)
}

func (b *Builder) emit(in Instr) { b.instrs = append(b.instrs, in) }

func (b *Builder) emitRef(in Instr, label string) {
	b.refs = append(b.refs, labelRef{index: len(b.instrs), label: label})
	b.emit(in)
}

// Nop appends a no-op.
//
//lint:allow testonly verification oracle: TestPCOutsideProgram drives the interpreter's nop through it; no kernel emits it
func (b *Builder) Nop() { b.emit(Instr{Op: OpNop}) }

// --- register-register ALU ---

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpSub, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpMul, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Div emits rd = rs1 / rs2 (signed; division by zero yields 0).
func (b *Builder) Div(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Rem emits rd = rs1 % rs2 (signed; modulo by zero yields 0).
//
//lint:allow testonly verification oracle: TestALUOps drives the interpreter's rem through it; no kernel emits it
func (b *Builder) Rem(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpRem, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpOr, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpXor, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Shl emits rd = rs1 << (rs2 & 31).
func (b *Builder) Shl(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpShl, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Shr emits rd = rs1 >> (rs2 & 31), logical.
func (b *Builder) Shr(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpShr, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Sra emits rd = rs1 >> (rs2 & 31), arithmetic.
func (b *Builder) Sra(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpSra, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// Slt emits rd = (rs1 < rs2) ? 1 : 0, signed.
//
//lint:allow testonly verification oracle: TestShiftAndCompare drives the interpreter's slt through it; no kernel emits it
func (b *Builder) Slt(rd, rs1, rs2 Reg) { b.emit(Instr{Op: OpSlt, Rd: rd, Rs1: rs1, Rs2: rs2}) }

// --- immediates ---

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}

// Ori emits rd = rs1 | imm.
//
//lint:allow testonly verification oracle: TestALUOps drives the interpreter's ori through it; no kernel emits it
func (b *Builder) Ori(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpOri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Xori emits rd = rs1 ^ imm.
//
//lint:allow testonly verification oracle: TestALUOps drives the interpreter's xori through it; no kernel emits it
func (b *Builder) Xori(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpXori, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpShli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm, logical.
func (b *Builder) Shri(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpShri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Slti emits rd = (rs1 < imm) ? 1 : 0, signed.
//
//lint:allow testonly verification oracle: TestShiftAndCompare drives the interpreter's slti through it; no kernel emits it
func (b *Builder) Slti(rd, rs1 Reg, imm int32) {
	b.emit(Instr{Op: OpSlti, Rd: rd, Rs1: rs1, Imm: imm})
}

// Movi emits rd = imm (full 32-bit immediate load).
func (b *Builder) Movi(rd Reg, imm int32) { b.emit(Instr{Op: OpMovi, Rd: rd, Imm: imm}) }

// MoviU emits rd = imm for an unsigned 32-bit immediate such as an address.
func (b *Builder) MoviU(rd Reg, imm uint32) { b.emit(Instr{Op: OpMovi, Rd: rd, Imm: int32(imm)}) }

// Mov emits rd = rs (assembled as addi rd, rs, 0).
func (b *Builder) Mov(rd, rs Reg) { b.Addi(rd, rs, 0) }

// --- memory ---

// Lw emits rd = mem32[rs1 + off].
func (b *Builder) Lw(rd, rs1 Reg, off int32) { b.emit(Instr{Op: OpLw, Rd: rd, Rs1: rs1, Imm: off}) }

// Lh emits rd = zext(mem16[rs1 + off]).
//
//lint:allow testonly verification oracle: TestLoadStoreWidths drives the interpreter's lh through it; no kernel emits it
func (b *Builder) Lh(rd, rs1 Reg, off int32) { b.emit(Instr{Op: OpLh, Rd: rd, Rs1: rs1, Imm: off}) }

// Lb emits rd = zext(mem8[rs1 + off]).
func (b *Builder) Lb(rd, rs1 Reg, off int32) { b.emit(Instr{Op: OpLb, Rd: rd, Rs1: rs1, Imm: off}) }

// Sw emits mem32[rs1 + off] = rs2.
func (b *Builder) Sw(rs2, rs1 Reg, off int32) { b.emit(Instr{Op: OpSw, Rs1: rs1, Rs2: rs2, Imm: off}) }

// Sh emits mem16[rs1 + off] = rs2.
//
//lint:allow testonly verification oracle: TestLoadStoreWidths drives the interpreter's sh through it; no kernel emits it
func (b *Builder) Sh(rs2, rs1 Reg, off int32) { b.emit(Instr{Op: OpSh, Rs1: rs1, Rs2: rs2, Imm: off}) }

// Sb emits mem8[rs1 + off] = rs2.
func (b *Builder) Sb(rs2, rs1 Reg, off int32) { b.emit(Instr{Op: OpSb, Rs1: rs1, Rs2: rs2, Imm: off}) }

// --- control flow ---

// Beq branches to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 Reg, label string) {
	b.emitRef(Instr{Op: OpBeq, Rs1: rs1, Rs2: rs2}, label)
}

// Bne branches to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 Reg, label string) {
	b.emitRef(Instr{Op: OpBne, Rs1: rs1, Rs2: rs2}, label)
}

// Blt branches to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 Reg, label string) {
	b.emitRef(Instr{Op: OpBlt, Rs1: rs1, Rs2: rs2}, label)
}

// Bge branches to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 Reg, label string) {
	b.emitRef(Instr{Op: OpBge, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp jumps unconditionally to label (assembled as beq r0, r0 with both
// operands the same register).
func (b *Builder) Jmp(label string) { b.emitRef(Instr{Op: OpBeq}, label) }

// Jal jumps to label and records the return address in LR.
func (b *Builder) Jal(label string) { b.emitRef(Instr{Op: OpJal}, label) }

// Jr jumps to the address in rs1.
func (b *Builder) Jr(rs1 Reg) { b.emit(Instr{Op: OpJr, Rs1: rs1}) }

// Ret returns to the caller (jr LR).
func (b *Builder) Ret() { b.Jr(LR) }

// Call saves LR on the stack, calls label, restores LR. It is the standard
// non-leaf call sequence and generates the stack traffic studied by the
// stack-memory experiment (E9).
//
//lint:allow testonly verification oracle: TestCallRetAndStack drives the non-leaf call sequence through it; no kernel emits it
func (b *Builder) Call(label string) {
	b.Push(LR)
	b.Jal(label)
	b.Pop(LR)
}

// Push pushes each register in order (decrementing SP by 4 per register).
func (b *Builder) Push(regs ...Reg) {
	for _, r := range regs {
		b.emit(Instr{Op: OpPush, Rs1: r})
	}
}

// Pop pops into each register in order (incrementing SP by 4 per register).
// To undo Push(a, b), call Pop(b, a).
func (b *Builder) Pop(regs ...Reg) {
	for _, r := range regs {
		b.emit(Instr{Op: OpPop, Rd: r})
	}
}

// Halt stops the machine.
func (b *Builder) Halt() { b.emit(Instr{Op: OpHalt}) }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.instrs) }

// Assemble resolves label references and returns the finished program.
func (b *Builder) Assemble() (*Program, error) {
	instrs := append([]Instr(nil), b.instrs...)
	for _, ref := range b.refs {
		idx, ok := b.labels[ref.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", ref.label)
		}
		instrs[ref.index].Imm = int32(idx * 4)
	}
	return &Program{Instrs: instrs}, nil
}

// MustAssemble is Assemble for hand-written kernels where an undefined
// label is a bug; it panics on error.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		//lint:allow panicfree Must* helper; panicking on a broken hand-written kernel is the documented contract
		panic(err)
	}
	return p
}

// Program is an assembled µRISC program. Instruction i lives at byte
// address TextBase + 4*i when loaded.
type Program struct {
	Instrs []Instr
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }
