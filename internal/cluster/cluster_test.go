package cluster

import (
	"slices"
	"testing"

	"lpmem/internal/trace"
)

func mkTrace(addrs ...uint32) *trace.Trace {
	t := trace.New(len(addrs))
	for _, a := range addrs {
		t.Append(trace.Access{Addr: a, Kind: trace.Read, Width: 4})
	}
	return t
}

// clusterOrder profiles t as one phase and returns its block bases in
// clustered order.
func clusterOrder(t *trace.Trace, blockSize uint32, cfg Config) ([]uint32, error) {
	p, err := NewProfile([]*trace.Trace{t}, blockSize)
	if err != nil {
		return nil, err
	}
	order := p.Order(cfg)
	bases := make([]uint32, len(order))
	for i, j := range order {
		bases[i] = p.Bases[j]
	}
	return bases, nil
}

func TestClusterErrorsOnBadBlockSize(t *testing.T) {
	for _, bs := range []uint32{0, 100} {
		if _, err := NewProfile([]*trace.Trace{mkTrace(0)}, bs); err == nil {
			t.Fatalf("block size %d: want error", bs)
		}
	}
}

// TestHotBlocksComeFirst: frequency-dominant ordering must place the
// hottest blocks at the lowest positions of the returned order.
func TestHotBlocksComeFirst(t *testing.T) {
	var addrs []uint32
	// Block 0x4000 hot (50 accesses), 0x1000 medium (10), 0x8000 cold (1).
	for i := 0; i < 50; i++ {
		addrs = append(addrs, 0x4000)
	}
	for i := 0; i < 10; i++ {
		addrs = append(addrs, 0x1000)
	}
	addrs = append(addrs, 0x8000)
	order, err := clusterOrder(mkTrace(addrs...), 256, Config{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []uint32{0x4000, 0x1000, 0x8000}) {
		t.Fatalf("order = %x", order)
	}
}

// TestAffinityPullsPartnersTogether: with a strong affinity weight, blocks
// that alternate in time should be adjacent in the clustered order.
func TestAffinityPullsPartnersTogether(t *testing.T) {
	var addrs []uint32
	// A and B alternate; C has the same frequency but never adjacent to A.
	for i := 0; i < 30; i++ {
		addrs = append(addrs, 0x1000, 0x8000) // A, B interleaved
	}
	for i := 0; i < 30; i++ {
		addrs = append(addrs, 0x4000, 0x4000) // C bursts alone
	}
	order, err := clusterOrder(mkTrace(addrs...), 256, Config{AffinityWeight: 10, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	posA := slices.Index(order, 0x1000)
	posB := slices.Index(order, 0x8000)
	if posA < 0 || posB < 0 {
		t.Fatalf("order %x lacks a partner block", order)
	}
	if d := posA - posB; d != 1 && d != -1 {
		t.Fatalf("interleaved blocks should be adjacent, got positions %d and %d", posA, posB)
	}
}
