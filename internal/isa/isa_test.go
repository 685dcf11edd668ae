package isa

import (
	"math/rand"
	"testing"

	"lpmem/internal/trace"
)

// runProg assembles, runs and returns the CPU.
func runProg(t *testing.T, build func(b *Builder)) *CPU {
	t.Helper()
	b := NewBuilder()
	build(b)
	b.Halt()
	cpu := NewCPU(b.MustAssemble())
	if err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestALUOps(t *testing.T) {
	cpu := runProg(t, func(b *Builder) {
		b.Movi(1, 20)
		b.Movi(2, 6)
		b.Add(3, 1, 2)   // 26
		b.Sub(4, 1, 2)   // 14
		b.Mul(5, 1, 2)   // 120
		b.Div(6, 1, 2)   // 3
		b.Rem(7, 1, 2)   // 2
		b.And(8, 1, 2)   // 4
		b.Or(9, 1, 2)    // 22
		b.Xor(10, 1, 2)  // 18
		b.Ori(11, 1, 3)  // 23
		b.Xori(12, 1, 6) // 18
	})
	want := map[Reg]uint32{3: 26, 4: 14, 5: 120, 6: 3, 7: 2, 8: 4, 9: 22, 10: 18, 11: 23, 12: 18}
	for r, w := range want {
		if cpu.Regs[r] != w {
			t.Errorf("r%d = %d, want %d", r, cpu.Regs[r], w)
		}
	}
}

func TestShiftAndCompare(t *testing.T) {
	cpu := runProg(t, func(b *Builder) {
		b.Movi(1, -8)
		b.Movi(2, 1)
		b.Shl(3, 1, 2)   // -16
		b.Shr(4, 1, 2)   // logical: big positive
		b.Sra(5, 1, 2)   // arithmetic: -4
		b.Slt(6, 1, 2)   // -8 < 1 -> 1
		b.Slti(7, 1, -9) // -8 < -9 -> 0
	})
	if int32(cpu.Regs[3]) != -16 {
		t.Errorf("shl = %d", int32(cpu.Regs[3]))
	}
	if cpu.Regs[4] != 0x7FFFFFFC {
		t.Errorf("shr = %#x", cpu.Regs[4])
	}
	if int32(cpu.Regs[5]) != -4 {
		t.Errorf("sra = %d", int32(cpu.Regs[5]))
	}
	if cpu.Regs[6] != 1 || cpu.Regs[7] != 0 {
		t.Errorf("slt/slti = %d/%d", cpu.Regs[6], cpu.Regs[7])
	}
}

func TestDivByZero(t *testing.T) {
	cpu := runProg(t, func(b *Builder) {
		b.Movi(1, 42)
		b.Movi(2, 0)
		b.Div(3, 1, 2)
		b.Rem(4, 1, 2)
	})
	if cpu.Regs[3] != 0 || cpu.Regs[4] != 0 {
		t.Fatal("division by zero must yield 0, not trap")
	}
}

func TestLoadStoreWidths(t *testing.T) {
	cpu := runProg(t, func(b *Builder) {
		b.MoviU(1, 0x20000)
		b.MoviU(2, 0xDEADBEEF)
		b.Sw(2, 1, 0)
		b.Lb(3, 1, 3) // 0xDE
		b.Lh(4, 1, 0) // 0xBEEF
		b.Lw(5, 1, 0)
		b.Sh(2, 1, 4) // low half only
		b.Lw(6, 1, 4)
	})
	if cpu.Regs[3] != 0xDE || cpu.Regs[4] != 0xBEEF || cpu.Regs[5] != 0xDEADBEEF {
		t.Fatalf("loads = %#x %#x %#x", cpu.Regs[3], cpu.Regs[4], cpu.Regs[5])
	}
	if cpu.Regs[6] != 0xBEEF {
		t.Fatalf("sh stored %#x, want 0xbeef", cpu.Regs[6])
	}
}

func TestBranchesAndLoop(t *testing.T) {
	cpu := runProg(t, func(b *Builder) {
		b.Movi(1, 0)  // i
		b.Movi(2, 10) // limit
		b.Movi(3, 0)  // sum
		b.Label("loop")
		b.Bge(1, 2, "done")
		b.Add(3, 3, 1)
		b.Addi(1, 1, 1)
		b.Jmp("loop")
		b.Label("done")
	})
	if cpu.Regs[3] != 45 {
		t.Fatalf("sum = %d, want 45", cpu.Regs[3])
	}
}

func TestCallRetAndStack(t *testing.T) {
	b := NewBuilder()
	b.Movi(1, 5)
	b.Jal("double")
	b.Halt()
	b.Label("double")
	b.Add(2, 1, 1)
	b.Ret()
	cpu := NewCPU(b.MustAssemble())
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[2] != 10 {
		t.Fatalf("double(5) = %d", cpu.Regs[2])
	}
	// Push/pop restore SP.
	cpu2 := runProg(t, func(b *Builder) {
		b.Movi(1, 7)
		b.Movi(2, 9)
		b.Push(1, 2)
		b.Movi(1, 0)
		b.Movi(2, 0)
		b.Pop(2, 1)
	})
	if cpu2.Regs[1] != 7 || cpu2.Regs[2] != 9 {
		t.Fatalf("push/pop = %d,%d", cpu2.Regs[1], cpu2.Regs[2])
	}
	if cpu2.Regs[SP] != DefaultStackTop {
		t.Fatalf("SP not restored: %#x", cpu2.Regs[SP])
	}
	// Call saves LR around a nested call, so the non-leaf outer returns.
	b3 := NewBuilder()
	b3.Movi(1, 3)
	b3.Jal("outer")
	b3.Halt()
	b3.Label("outer")
	b3.Call("double")
	b3.Ret()
	b3.Label("double")
	b3.Add(1, 1, 1)
	b3.Ret()
	cpu3 := NewCPU(b3.MustAssemble())
	if err := cpu3.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu3.Regs[1] != 6 || cpu3.Regs[SP] != DefaultStackTop {
		t.Fatalf("call: r1 = %d, SP = %#x", cpu3.Regs[1], cpu3.Regs[SP])
	}
}

func TestAssemblerErrors(t *testing.T) {
	b := NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Assemble(); err == nil {
		t.Fatal("undefined label must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label must panic")
		}
	}()
	b2 := NewBuilder()
	b2.Label("x")
	b2.Label("x")
}

func TestRunawayDetection(t *testing.T) {
	b := NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	cpu := NewCPU(b.MustAssemble())
	if err := cpu.Run(100); err != ErrRunaway {
		t.Fatalf("err = %v, want ErrRunaway", err)
	}
}

func TestPCOutsideProgram(t *testing.T) {
	b := NewBuilder()
	b.Nop() // falls off the end
	cpu := NewCPU(b.MustAssemble())
	if err := cpu.Run(10); err == nil {
		t.Fatal("running off the end must error")
	}
}

func TestTraceEmission(t *testing.T) {
	b := NewBuilder()
	b.MoviU(1, 0x30000)
	b.Movi(2, 77)
	b.Sw(2, 1, 0)
	b.Lw(3, 1, 0)
	b.Halt()
	cpu := NewCPU(b.MustAssemble())
	tr, err := cpu.RunTraced(100)
	if err != nil {
		t.Fatal(err)
	}
	var fetches, reads, writes int
	for _, a := range tr.Accesses {
		switch a.Kind {
		case trace.Fetch:
			fetches++
		case trace.Read:
			reads++
			if a.Value != 77 {
				t.Errorf("read value = %d", a.Value)
			}
		case trace.Write:
			writes++
			if a.Addr != 0x30000 {
				t.Errorf("write addr = %#x", a.Addr)
			}
		}
	}
	if fetches != 5 || reads != 1 || writes != 1 {
		t.Fatalf("trace counts f=%d r=%d w=%d", fetches, reads, writes)
	}
}

func TestCycleModel(t *testing.T) {
	// mul and div cost more than add.
	base := runProg(t, func(b *Builder) { b.Movi(1, 3); b.Movi(2, 4); b.Add(3, 1, 2) }).Cycles
	mul := runProg(t, func(b *Builder) { b.Movi(1, 3); b.Movi(2, 4); b.Mul(3, 1, 2) }).Cycles
	div := runProg(t, func(b *Builder) { b.Movi(1, 3); b.Movi(2, 4); b.Div(3, 1, 2) }).Cycles
	if mul <= base || div <= mul {
		t.Fatalf("cycle ordering wrong: add=%d mul=%d div=%d", base, mul, div)
	}
}

// TestEncodeFieldsRecoverable: the documented field layout holds.
func TestEncodeFieldsRecoverable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		in := Instr{
			Op:  Op(r.Intn(int(OpHalt) + 1)),
			Rd:  Reg(r.Intn(16)),
			Rs1: Reg(r.Intn(16)),
			Rs2: Reg(r.Intn(16)),
			Imm: int32(r.Intn(1 << 13)),
		}
		w := Encode(in)
		if Op(w>>26) != in.Op || Reg(w>>22&0xF) != in.Rd ||
			Reg(w>>18&0xF) != in.Rs1 || Reg(w>>14&0xF) != in.Rs2 ||
			int32(w&0x3FFF) != in.Imm {
			t.Fatalf("encode fields wrong for %+v -> %#x", in, w)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpLw, Rd: 3, Rs1: 7, Imm: 8}, "lw r3, 8(r7)"},
		{Instr{Op: OpSw, Rs2: 2, Rs1: 1, Imm: 4}, "sw r2, 4(r1)"},
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpJr, Rs1: 14}, "jr r14"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
