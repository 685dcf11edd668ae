package trace

import (
	"math/rand"
	"testing"
)

// TestPageTableMatchesMap: after random Sets, including overwrites, Get
// returns what a map holds for every key set and the zero value for
// keys never set. The keys cover both ends of a leaf (0, 1023), the
// first key of the second leaf (1024), the last page (2²⁰−1), one key in
// each of a spread of directory slots, and random 20-bit pages.
func TestPageTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keys := []uint32{0, 1, 1023, 1024, 1025, 1 << 19, 1<<20 - 1}
	for slot := uint32(0); slot < dirSize; slot += 97 {
		keys = append(keys, slot<<leafBits|uint32(r.Intn(leafSize)))
	}
	for i := 0; i < 4000; i++ {
		keys = append(keys, r.Uint32()&(1<<20-1))
	}
	var pt PageTable[int32]
	want := map[uint32]int32{}
	for i, k := range keys {
		v := int32(i + 1)
		if r.Intn(4) == 0 {
			v = 0 // setting the zero value reads as never set
		}
		pt.Set(k, v)
		want[k] = v
	}
	for k, v := range want {
		if got := pt.Get(k); got != v {
			t.Fatalf("Get(%#x) = %d, want %d", k, got, v)
		}
		if got := pt.Get(k | 1<<20); got != v {
			t.Fatalf("Get(%#x) = %d, want %d: bits above 2²⁰ are ignored", k|1<<20, got, v)
		}
	}
	for i := 0; i < 20000; i++ {
		k := r.Uint32() & (1<<20 - 1)
		if got := pt.Get(k); got != want[k] {
			t.Fatalf("Get(%#x) = %d, want %d", k, got, want[k])
		}
	}
}

// TestPageTableGetAbsentDoesNotAllocate: Get of a page never set, in an
// empty table, in an allocated leaf and in an unallocated one, allocates
// nothing.
func TestPageTableGetAbsentDoesNotAllocate(t *testing.T) {
	var empty, used PageTable[*[pageSize]byte]
	used.Set(5, new([pageSize]byte))
	for _, pt := range []*PageTable[*[pageSize]byte]{&empty, &used} {
		if n := testing.AllocsPerRun(100, func() {
			if pt.Get(6) != nil || pt.Get(1<<20-1) != nil {
				t.Fatal("absent page read as set")
			}
		}); n != 0 {
			t.Fatalf("Get of absent pages allocated %.1f times", n)
		}
	}
}

// TestMemoryStoreIntoWrittenPageDoesNotAllocate: once a page holds a
// byte, further stores anywhere in it allocate nothing.
func TestMemoryStoreIntoWrittenPageDoesNotAllocate(t *testing.T) {
	var m Memory
	m.Store(0x7FFFF000, 1, 1)
	if n := testing.AllocsPerRun(100, func() {
		m.Store(0x7FFFF000, 4, 0xDEADBEEF)
		m.Store(0x7FFFFFFC, 4, 0xCAFEF00D)
	}); n != 0 {
		t.Fatalf("stores into a written page allocated %.1f times", n)
	}
}

// TestMemoryAllocationsGrowWithPagesTouched: one byte stored into each
// of k pages in k different directory slots allocates at most the image
// plus a leaf and a page per slot, so memory grows with the pages
// touched rather than with their addresses.
func TestMemoryAllocationsGrowWithPagesTouched(t *testing.T) {
	slots := []uint32{0, 1, 2, 511, 512, 700, 1022, 1023}
	k := float64(len(slots))
	if n := testing.AllocsPerRun(10, func() {
		m := new(Memory)
		for _, s := range slots {
			m.Store(s<<(leafBits+pageShift)|0x123, 1, 0xAB)
		}
		if m.Load(slots[3]<<(leafBits+pageShift)|0x123, 1) != 0xAB {
			t.Fatal("stored byte lost")
		}
	}); n > 1+2*k {
		t.Fatalf("%v stores into %v slots allocated %.1f objects, want at most %v", k, k, n, 1+2*k)
	}
}
