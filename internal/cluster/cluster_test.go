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

func TestClusterErrorsOnBadBlockSize(t *testing.T) {
	if _, err := Cluster(mkTrace(0), Config{BlockSize: 100}); err == nil {
		t.Fatal("want error")
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
	order, err := Cluster(mkTrace(addrs...), Config{BlockSize: 256, Window: 2})
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
	order, err := Cluster(mkTrace(addrs...), Config{BlockSize: 256, AffinityWeight: 10, Window: 1})
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
