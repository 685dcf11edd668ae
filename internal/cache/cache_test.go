package cache

import (
	"testing"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

func small() Config {
	return Config{Sets: 4, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true}
}

func mustNew(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Sets: 3, Ways: 1, LineSize: 16},
		{Sets: 4, Ways: 0, LineSize: 16},
		{Sets: 4, Ways: 1, LineSize: 12},
		{Sets: 0, Ways: 1, LineSize: 16},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	if err := small().Validate(); err != nil {
		t.Errorf("small config should validate: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, small())
	r1 := c.Access(0x100, false)
	if r1.Hit {
		t.Fatal("cold access must miss")
	}
	r2 := c.Access(0x104, false)
	if !r2.Hit {
		t.Fatal("same-line access must hit")
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 1 || got.Refills != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, small())
	// Set 0 holds lines with addresses that map to set 0: line size 16,
	// 4 sets -> set = (addr>>4)&3. Addresses 0x000, 0x040, 0x080 all map
	// to set 0.
	c.Access(0x000, false)
	c.Access(0x040, false)
	c.Access(0x000, false) // touch line 0 so 0x040 is LRU
	if r := c.Access(0x080, false); r.Hit || !r.Evicted || r.EvictedAddr != 0x040 {
		t.Fatalf("0x080 should miss and evict 0x040: %+v", r)
	}
	if !c.Access(0x000, false).Hit {
		t.Error("0x000 should still be resident")
	}
	if !c.Access(0x080, false).Hit {
		t.Error("0x080 should be resident")
	}
	if c.Access(0x040, false).Hit {
		t.Error("0x040 should have been evicted")
	}
	if got := c.Stats(); got.Hits != 3 || got.Misses != 4 || got.Refills != 4 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := mustNew(t, small())
	var wbAddr uint32
	wbSeen := 0
	c.OnWriteBack = func(addr uint32) {
		wbAddr = addr
		wbSeen++
	}
	c.Access(0x000, true)
	c.Access(0x040, false)
	c.Access(0x080, false) // evicts 0x000 (dirty)
	if wbSeen != 1 {
		t.Fatalf("want 1 write-back, got %d", wbSeen)
	}
	if wbAddr != 0x000 {
		t.Fatalf("write-back addr = %#x, want 0", wbAddr)
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Fatalf("write-backs = %d, want 1", got)
	}
}

func TestWriteThrough(t *testing.T) {
	cfg := small()
	cfg.WriteBack = false
	c := mustNew(t, cfg)
	c.OnWriteBack = func(addr uint32) { t.Errorf("write-through cache wrote back %#x", addr) }
	c.Access(0x20, true) // write-allocate miss, then forward
	c.Access(0x24, true) // hit, forward
	if got := c.Stats(); got.WriteThroughs != 2 || got.WriteBacks != 0 {
		t.Fatalf("stats = %+v, want 2 write-throughs and no write-back", got)
	}
	if n := c.Flush(); n != 0 {
		t.Fatalf("flush wrote back %d lines of a write-through cache", n)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := small()
	cfg.WriteAllocate = false
	c := mustNew(t, cfg)
	res := c.Access(0x300, true)
	if res.Hit || res.Way != -1 {
		t.Fatalf("write-around miss should not allocate: %+v", res)
	}
	if c.Access(0x300, false).Hit {
		t.Fatal("line must not be resident after write-around")
	}
	if got := c.Stats(); got.Misses != 2 || got.Refills != 1 || got.WriteThroughs != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestFlushWritesDirtyLines(t *testing.T) {
	c := mustNew(t, small())
	c.Access(0x00, true)
	c.Access(0x10, true)
	c.Access(0x20, false)
	n := c.Flush()
	if n != 2 {
		t.Fatalf("flushed %d dirty lines, want 2", n)
	}
	if c.Access(0x00, false).Hit || c.Access(0x20, false).Hit {
		t.Fatal("flush must invalidate all lines")
	}
	if got := c.Stats(); got.WriteBacks != 2 || got.Refills != 5 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestHitRateImprovesWithSize sanity-checks the simulator against a real
// workload trace: a bigger cache must not have a lower hit rate.
func TestHitRateImprovesWithSize(t *testing.T) {
	k, _ := workloads.ByName("matmul")
	res := testutil.MustRun(k.Build(1))
	prev := -1.0
	for _, sets := range []int{4, 16, 64} {
		c := mustNew(t, Config{Sets: sets, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true})
		st := c.Replay(res.Trace)
		hr := st.HitRate()
		if hr < prev-0.001 {
			t.Errorf("hit rate decreased with size: sets=%d hr=%.3f prev=%.3f", sets, hr, prev)
		}
		prev = hr
	}
}

// TestReplaySkipsFetches ensures Replay only feeds data accesses.
func TestReplaySkipsFetches(t *testing.T) {
	tr := trace.New(4)
	tr.Append(trace.Access{Addr: 0, Kind: trace.Fetch, Width: 4})
	tr.Append(trace.Access{Addr: 16, Kind: trace.Read, Width: 4})
	c := mustNew(t, small())
	st := c.Replay(tr)
	if st.Accesses != 1 {
		t.Fatalf("accesses = %d, want 1", st.Accesses)
	}
}

// TestMissTraffic replays a hand-built trace through a one-line cache:
// the miss traffic is every refill as a line-wide read and every
// write-back as a line-wide write, in the order the cache issued them
// (a dirty victim is written back before its replacement is refilled),
// and fetches and hits add nothing.
func TestMissTraffic(t *testing.T) {
	tr := &trace.Trace{Accesses: []trace.Access{
		{Addr: 0x04, Kind: trace.Read, Width: 4},  // cold miss: refill 0x00
		{Addr: 0x08, Kind: trace.Write, Width: 4}, // hit, line 0x00 dirty
		{Addr: 0x40, Kind: trace.Fetch, Width: 4}, // skipped
		{Addr: 0x12, Kind: trace.Read, Width: 2},  // miss: write back 0x00, refill 0x10
		{Addr: 0x1c, Kind: trace.Read, Width: 4},  // hit
		{Addr: 0x20, Kind: trace.Write, Width: 1}, // clean victim: refill 0x20 only
	}}
	cfg := Config{Sets: 1, Ways: 1, LineSize: 16, WriteBack: true, WriteAllocate: true}
	miss, st, err := MissTraffic(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []trace.Access{
		{Addr: 0x00, Kind: trace.Read, Width: 16},
		{Addr: 0x00, Kind: trace.Write, Width: 16},
		{Addr: 0x10, Kind: trace.Read, Width: 16},
		{Addr: 0x20, Kind: trace.Read, Width: 16},
	}
	if len(miss.Accesses) != len(want) {
		t.Fatalf("miss traffic %+v, want %+v", miss.Accesses, want)
	}
	for i := range want {
		if miss.Accesses[i] != want[i] {
			t.Errorf("miss access %d = %+v, want %+v", i, miss.Accesses[i], want[i])
		}
	}
	if st != (Stats{Accesses: 5, Hits: 2, Misses: 3, Refills: 3, WriteBacks: 1}) {
		t.Errorf("stats = %+v", st)
	}
	// The same geometry replayed directly must agree: the capture only
	// observes the cache.
	if direct := mustNew(t, cfg).Replay(tr); direct != st {
		t.Errorf("capture stats %+v differ from a plain replay's %+v", st, direct)
	}
}

// TestMissTrafficRejectsBadGeometry: an invalid configuration, or a line
// too wide for an access's width field, is an error, not a truncated
// trace.
func TestMissTrafficRejectsBadGeometry(t *testing.T) {
	tr := &trace.Trace{Accesses: []trace.Access{{Addr: 0, Kind: trace.Read, Width: 4}}}
	for _, cfg := range []Config{
		{Sets: 3, Ways: 1, LineSize: 16, WriteBack: true, WriteAllocate: true},
		{Sets: 1, Ways: 1, LineSize: 256, WriteBack: true, WriteAllocate: true},
	} {
		if _, _, err := MissTraffic(tr, cfg); err == nil {
			t.Errorf("%+v: no error", cfg)
		}
	}
}

// TestStackHits follows one set's LRU stack through a hand-built trace
// and checks the sums against replays at every associativity up to the
// depth.
func TestStackHits(t *testing.T) {
	tr := &trace.Trace{Accesses: []trace.Access{
		{Addr: 0x00, Kind: trace.Read, Width: 4},  // A miss: [A]
		{Addr: 0x10, Kind: trace.Write, Width: 4}, // B miss: [B A]
		{Addr: 0x40, Kind: trace.Fetch, Width: 4}, // skipped
		{Addr: 0x04, Kind: trace.Read, Width: 4},  // A hit at depth 1: [A B]
		{Addr: 0x20, Kind: trace.Read, Width: 4},  // C miss: [C A B]
		{Addr: 0x1c, Kind: trace.Write, Width: 4}, // B hit at depth 2: [B C A]
		{Addr: 0x30, Kind: trace.Read, Width: 4},  // D miss, A dropped: [D B C]
		{Addr: 0x08, Kind: trace.Read, Width: 4},  // A miss: [A D B]
	}}
	accesses, hits, err := StackHits(tr, 1, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if accesses != 7 || len(hits) != 3 || hits[0] != 0 || hits[1] != 1 || hits[2] != 1 {
		t.Fatalf("accesses %d, hits by depth %v; want 7, [0 1 1]", accesses, hits)
	}
	var sum uint64
	for ways := 1; ways <= 3; ways++ {
		sum += hits[ways-1]
		st := mustNew(t, Config{Sets: 1, Ways: ways, LineSize: 16, WriteBack: true, WriteAllocate: true}).Replay(tr)
		if st.Accesses != accesses || st.Hits != sum {
			t.Errorf("%d ways: replay %d hits of %d, stack sum %d of %d", ways, st.Hits, st.Accesses, sum, accesses)
		}
	}
	for _, bad := range [][3]int{{3, 16, 2}, {4, 24, 2}, {4, 16, 0}} {
		if _, _, err := StackHits(tr, bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("sets %d, line %d, depth %d: no error", bad[0], bad[1], bad[2])
		}
	}
}
