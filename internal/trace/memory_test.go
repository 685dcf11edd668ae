package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMemory is a per-byte map: the simplest memory there is. Unwritten
// bytes read as zero, and addresses wrap at 2³².
type refMemory map[uint32]byte

func (m refMemory) store(addr uint32, width uint8, value uint32) {
	for i := uint32(0); i < uint32(width); i++ {
		m[addr+i] = byte(value >> (8 * i))
	}
}

func (m refMemory) load(addr uint32, width uint8) uint32 {
	var v uint32
	for i := uint32(0); i < uint32(width); i++ {
		v |= uint32(m[addr+i]) << (8 * i)
	}
	return v
}

// randomMemAddr draws an address near the top of the address space (so
// accesses wrap to 0), near 0, on either side of a page boundary, or
// anywhere.
func randomMemAddr(r *rand.Rand) uint32 {
	switch r.Intn(4) {
	case 0:
		return 0xFFFFFFFF - uint32(r.Intn(3*8192))
	case 1:
		return uint32(r.Intn(3 * 8192))
	case 2:
		return uint32(1+r.Intn(64))<<12 - 16 + uint32(r.Intn(32))
	default:
		return r.Uint32()
	}
}

// TestMemoryMatchesReference: random unaligned Store, LoadBytes, Load and
// ReadLine calls (ReadLine and LoadBytes of up to 8192 bytes span three
// pages when unaligned), many of them wrapping at 2³², read back exactly
// what the per-byte reference does, including zeroes for never-written
// bytes whatever dst held before.
func TestMemoryMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		var got Memory
		want := refMemory{}
		for op := 0; op < 400; op++ {
			addr := randomMemAddr(r)
			width := uint8(1 + r.Intn(4))
			switch r.Intn(4) {
			case 0:
				v := r.Uint32()
				got.Store(addr, width, v)
				want.store(addr, width, v)
			case 1:
				src := make([]byte, 1+r.Intn(8192))
				r.Read(src)
				got.LoadBytes(addr, src)
				for i, b := range src {
					want[addr+uint32(i)] = b
				}
			case 2:
				if g, w := got.Load(addr, width), want.load(addr, width); g != w {
					t.Fatalf("trial %d op %d: Load(%#x, %d) = %#x, reference %#x", trial, op, addr, width, g, w)
				}
			default:
				n := 8192
				if r.Intn(2) == 0 {
					n = 1 + r.Intn(8192)
				}
				g, w := make([]byte, n), make([]byte, n)
				r.Read(g) // stale contents must be overwritten
				got.ReadLine(addr, g)
				for i := range w {
					w[i] = want[addr+uint32(i)]
				}
				if !bytes.Equal(g, w) {
					t.Fatalf("trial %d op %d: ReadLine(%#x, %d bytes) differs from the reference", trial, op, addr, n)
				}
			}
		}
	}
}

// TestMemoryReadsDoNotAllocate: reading never-written memory, of a fresh
// or a populated image, allocates nothing.
func TestMemoryReadsDoNotAllocate(t *testing.T) {
	var fresh, used Memory
	used.Store(0x1000, 4, 1)
	line := make([]byte, 64)
	for _, m := range []*Memory{&fresh, &used} {
		if n := testing.AllocsPerRun(100, func() {
			m.Load(0x8000, 4)
			m.ReadLine(0xFFFFFFF0, line)
		}); n != 0 {
			t.Fatalf("reads allocated %.1f times", n)
		}
	}
}

func TestMemoryWordRoundTrip(t *testing.T) {
	f := func(addr, v uint32) bool {
		var m Memory
		m.Store(addr, 4, v)
		return m.Load(addr, 4) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	var m Memory
	m.Store(0x100, 4, 0x04030201)
	for i, want := range []uint32{1, 2, 3, 4} {
		if got := m.Load(0x100+uint32(i), 1); got != want {
			t.Fatalf("byte %d = %d, want %d", i, got, want)
		}
	}
	m.Store(0x200, 2, 0xFFFFBBAA) // only the low half is stored
	if m.Load(0x200, 1) != 0xAA || m.Load(0x201, 1) != 0xBB || m.Load(0x202, 2) != 0 {
		t.Fatal("half-word endianness wrong")
	}
	if m.Load(0x200, 2) != 0xBBAA {
		t.Fatal("half read wrong")
	}
}

func TestMemoryCrossPage(t *testing.T) {
	var m Memory
	addr := uint32(pageSize - 2) // straddles a page boundary
	m.Store(addr, 4, 0xDEADBEEF)
	if m.Load(addr, 4) != 0xDEADBEEF {
		t.Fatal("cross-page word broken")
	}
}

func TestLoadReadWords(t *testing.T) {
	var m Memory
	words := []uint32{1, 2, 3, 4, 5}
	m.LoadWords(0x1000, words)
	got := m.ReadWords(0x1000, 5)
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d = %d", i, got[i])
		}
	}
}
