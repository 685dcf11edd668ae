package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

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
// hottest blocks at the lowest clustered indices.
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
	c, err := Cluster(mkTrace(addrs...), Config{BlockSize: 256, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Order[0] != 0x4000 || c.Order[1] != 0x1000 || c.Order[2] != 0x8000 {
		t.Fatalf("order = %v", c.Order)
	}
}

// TestMapAddrIsInjectiveOnProfiledBlocks: the permutation must never map
// two different profiled addresses to the same clustered address.
func TestMapAddrIsInjectiveOnProfiledBlocks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var addrs []uint32
		for i := 0; i < 200; i++ {
			addrs = append(addrs, uint32(r.Intn(1<<16))&^3)
		}
		tr := mkTrace(addrs...)
		c, err := Cluster(tr, DefaultConfig())
		if err != nil {
			return false
		}
		seen := make(map[uint32]uint32)
		for _, a := range addrs {
			m := c.MapAddr(a)
			if prev, ok := seen[m]; ok && prev != a {
				return false
			}
			seen[m] = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMapAddrPreservesOffsets: intra-block offsets survive the remap.
func TestMapAddrPreservesOffsets(t *testing.T) {
	tr := mkTrace(0x1234, 0x1238, 0x5000)
	c, err := Cluster(tr, Config{BlockSize: 64, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.MapAddr(0x1238)-c.MapAddr(0x1234) != 4 {
		t.Fatal("offsets within a block must be preserved")
	}
}

// TestRemapKeepsFetchesUntouched.
func TestRemapKeepsFetchesUntouched(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Access{Addr: 0x9999, Kind: trace.Fetch, Width: 4})
	tr.Append(trace.Access{Addr: 0x4000, Kind: trace.Read, Width: 4})
	c, err := Cluster(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := c.Remap(tr)
	if out.Accesses[0].Addr != 0x9999 {
		t.Fatal("fetch address must not be remapped")
	}
}

// TestIdentityBaselineIsSortedCompact: baseline blocks appear in ascending
// original order at consecutive indices.
func TestIdentityBaselineIsSortedCompact(t *testing.T) {
	tr := mkTrace(0x8000, 0x1000, 0x8000, 0x4000)
	base, err := IdentityBaseline(tr, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Order) != 3 {
		t.Fatalf("order = %v", base.Order)
	}
	if base.Order[0] != 0x1000 || base.Order[1] != 0x4000 || base.Order[2] != 0x8000 {
		t.Fatalf("order = %v", base.Order)
	}
	if base.NewIndex[0x1000] != 0 || base.NewIndex[0x8000] != 2 {
		t.Fatalf("index = %v", base.NewIndex)
	}
}

// TestClusteredProfileMassPreserved: remapping must preserve total access
// counts per block (just moved).
func TestClusteredProfileMassPreserved(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var addrs []uint32
	for i := 0; i < 500; i++ {
		addrs = append(addrs, uint32(r.Intn(1<<14))&^3)
	}
	tr := mkTrace(addrs...)
	c, err := Cluster(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := c.Remap(tr)
	if out.Len() != tr.Len() {
		t.Fatal("length changed")
	}
	// Per-block data-access counts, then the multiset of those counts:
	// remapping moves blocks but must not merge, split or drop any.
	counts := func(data *trace.Trace) map[uint64]int {
		perBlock := make(map[uint32]uint64)
		for _, a := range data.Accesses {
			perBlock[a.Addr&^(c.BlockSize-1)]++
		}
		m := make(map[uint64]int)
		for _, n := range perBlock {
			m[n]++
		}
		return m
	}
	cb, ca := counts(tr.Data()), counts(out.Data())
	if len(cb) != len(ca) {
		t.Fatalf("count multiset changed shape: %v vs %v", cb, ca)
	}
	for k, v := range cb {
		if ca[k] != v {
			t.Fatalf("count multiset changed at %d: %d vs %d", k, v, ca[k])
		}
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
	c, err := Cluster(mkTrace(addrs...), Config{BlockSize: 256, AffinityWeight: 10, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	posA := c.NewIndex[0x1000]
	posB := c.NewIndex[0x8000]
	if d := posA - posB; d != 1 && d != -1 {
		t.Fatalf("interleaved blocks should be adjacent, got positions %d and %d", posA, posB)
	}
}

func TestIdentityBaselineErrorsOnBadBlockSize(t *testing.T) {
	if _, err := IdentityBaseline(mkTrace(0), 3); err == nil {
		t.Fatal("want error")
	}
}
