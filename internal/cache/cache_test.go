package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

func small() Config {
	return Config{Sets: 4, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true}
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
	c := MustNew(small(), nil)
	r1 := c.Access(0x100, false, 4, 0)
	if r1.Hit {
		t.Fatal("cold access must miss")
	}
	r2 := c.Access(0x104, false, 4, 0)
	if !r2.Hit {
		t.Fatal("same-line access must hit")
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 1 || got.Refills != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small(), nil)
	// Set 0 holds lines with addresses that map to set 0: line size 16,
	// 4 sets -> set = (addr>>4)&3. Addresses 0x000, 0x040, 0x080 all map
	// to set 0.
	c.Access(0x000, false, 4, 0)
	c.Access(0x040, false, 4, 0)
	c.Access(0x000, false, 4, 0) // touch line 0 so 0x040 is LRU
	c.Access(0x080, false, 4, 0) // evicts 0x040
	if c.Lookup(0x040) != -1 {
		t.Error("0x040 should have been evicted")
	}
	if c.Lookup(0x000) == -1 {
		t.Error("0x000 should still be resident")
	}
	if c.Lookup(0x080) == -1 {
		t.Error("0x080 should be resident")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	backing := NewMapBacking()
	c := MustNew(small(), backing)
	var wbAddr uint32
	wbSeen := 0
	c.OnWriteBack = func(addr uint32, data []byte) {
		wbAddr = addr
		wbSeen++
		if len(data) != 16 {
			t.Errorf("write-back data length %d, want 16", len(data))
		}
	}
	c.Access(0x000, true, 4, 0xDEADBEEF)
	c.Access(0x040, false, 4, 0)
	c.Access(0x080, false, 4, 0) // evicts 0x000 (dirty)
	if wbSeen != 1 {
		t.Fatalf("want 1 write-back, got %d", wbSeen)
	}
	if wbAddr != 0x000 {
		t.Fatalf("write-back addr = %#x, want 0", wbAddr)
	}
	// Backing must now contain the stored word.
	var buf [16]byte
	backing.ReadLine(0, buf[:])
	got := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	if got != 0xDEADBEEF {
		t.Fatalf("backing word = %#x, want 0xDEADBEEF", got)
	}
}

func TestWriteThrough(t *testing.T) {
	backing := NewMapBacking()
	cfg := small()
	cfg.WriteBack = false
	c := MustNew(cfg, backing)
	c.Access(0x20, true, 4, 0x12345678)
	if c.Stats().WriteThroughs == 0 {
		t.Fatal("write-through count should be nonzero")
	}
	var buf [16]byte
	backing.ReadLine(0x20, buf[:])
	got := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	if got != 0x12345678 {
		t.Fatalf("backing word = %#x", got)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	cfg := small()
	cfg.WriteAllocate = false
	c := MustNew(cfg, NewMapBacking())
	res := c.Access(0x300, true, 4, 7)
	if res.Hit || res.Way != -1 {
		t.Fatalf("write-around miss should not allocate: %+v", res)
	}
	if c.Lookup(0x300) != -1 {
		t.Fatal("line must not be resident after write-around")
	}
}

func TestFlushWritesDirtyLines(t *testing.T) {
	c := MustNew(small(), NewMapBacking())
	c.Access(0x00, true, 4, 1)
	c.Access(0x10, true, 4, 2)
	c.Access(0x20, false, 4, 0)
	n := c.Flush()
	if n != 2 {
		t.Fatalf("flushed %d dirty lines, want 2", n)
	}
	if c.Lookup(0x00) != -1 || c.Lookup(0x20) != -1 {
		t.Fatal("flush must invalidate all lines")
	}
}

// TestCacheCoherentWithBacking is a property test: after any access
// sequence plus a flush, the backing store must hold exactly the bytes the
// access sequence would produce on a plain flat memory.
func TestCacheCoherentWithBacking(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		backing := NewMapBacking()
		c := MustNew(Config{Sets: 8, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true}, backing)
		flat := make(map[uint32]byte)
		for i := 0; i < int(n)+1; i++ {
			addr := uint32(r.Intn(1024)) &^ 3
			if r.Intn(2) == 0 {
				v := r.Uint32()
				c.Access(addr, true, 4, v)
				for b := uint32(0); b < 4; b++ {
					flat[addr+b] = byte(v >> (8 * b))
				}
			} else {
				c.Access(addr, false, 4, 0)
			}
		}
		c.Flush()
		var buf [16]byte
		for addr := uint32(0); addr < 1024; addr += 16 {
			backing.ReadLine(addr, buf[:])
			for i := uint32(0); i < 16; i++ {
				if buf[i] != flat[addr+i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHitRateImprovesWithSize sanity-checks the simulator against a real
// workload trace: a bigger cache must not have a lower hit rate.
func TestHitRateImprovesWithSize(t *testing.T) {
	k, _ := workloads.ByName("matmul")
	res := testutil.MustRun(k.Build(1))
	prev := -1.0
	for _, sets := range []int{4, 16, 64} {
		c := MustNew(Config{Sets: sets, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true}, nil)
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
	c := MustNew(small(), nil)
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
	if direct := MustNew(cfg, nil).Replay(tr); direct != st {
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
