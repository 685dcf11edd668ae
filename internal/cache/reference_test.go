package cache_test

import (
	"bytes"
	"math/rand"
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
)

// refBacking is the per-byte map the paged MapBacking replaced. Unwritten
// bytes read as zero, and addresses wrap at 2³².
type refBacking struct{ m map[uint32]byte }

func (b *refBacking) ReadLine(addr uint32, dst []byte) {
	for i := range dst {
		dst[i] = b.m[addr+uint32(i)]
	}
}

func (b *refBacking) WriteLine(addr uint32, src []byte) {
	for i, v := range src {
		b.m[addr+uint32(i)] = v
	}
}

// randomLineAddr draws an address near the top of the address space (so
// lines wrap to 0), near 0, on either side of a page boundary, or
// anywhere.
func randomLineAddr(r *rand.Rand) uint32 {
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

// TestMapBackingMatchesReference: random unaligned ReadLine and WriteLine
// calls of up to 8192 bytes (a LineSize of 8192 spans three pages when
// unaligned), many of them wrapping at 2³², read back exactly what the
// per-byte reference does, including zeroes for never-written bytes
// whatever dst held before.
func TestMapBackingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		got, want := cache.NewMapBacking(), &refBacking{m: make(map[uint32]byte)}
		for op := 0; op < 120; op++ {
			addr := randomLineAddr(r)
			n := 8192
			if r.Intn(2) == 0 {
				n = 1 + r.Intn(8192)
			}
			if r.Intn(2) == 0 {
				src := make([]byte, n)
				r.Read(src)
				got.WriteLine(addr, src)
				want.WriteLine(addr, src)
				continue
			}
			g, w := make([]byte, n), make([]byte, n)
			r.Read(g) // stale contents must be overwritten
			got.ReadLine(addr, g)
			want.ReadLine(addr, w)
			if !bytes.Equal(g, w) {
				t.Fatalf("trial %d op %d: ReadLine(%#x, %d bytes) differs from the reference", trial, op, addr, n)
			}
		}
	}
}

// TestReplayMatchesReferenceBacking: a write-back cache with 8192-byte
// lines refills the same line contents over the paged store as over the
// per-byte reference, on traces that write near the top of the address
// space.
func TestReplayMatchesReferenceBacking(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	cfg := cache.Config{Sets: 2, Ways: 2, LineSize: 8192, WriteBack: true, WriteAllocate: true}
	for trial := 0; trial < 3; trial++ {
		tr := trace.New(128)
		for i := 0; i < 128; i++ {
			a := trace.Access{Addr: randomLineAddr(r) &^ 3, Value: r.Uint32(), Width: 4, Kind: trace.Read}
			if r.Intn(2) == 0 {
				a.Kind = trace.Write
			}
			tr.Append(a)
		}
		var refills [2][]byte
		for k, b := range []cache.Backing{cache.NewMapBacking(), &refBacking{m: make(map[uint32]byte)}} {
			c := cache.MustNew(cfg, b)
			c.OnRefill = func(addr uint32, data []byte) {
				refills[k] = append(refills[k], byte(addr>>13))
				refills[k] = append(refills[k], data...)
			}
			c.Replay(tr)
			c.Flush()
		}
		if !bytes.Equal(refills[0], refills[1]) {
			t.Fatalf("trial %d: refill streams differ (%d vs %d bytes)", trial, len(refills[0]), len(refills[1]))
		}
	}
}
