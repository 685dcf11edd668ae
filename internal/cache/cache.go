// Package cache implements a data-holding set-associative cache simulator
// with LRU replacement, write-back/write-through and write-allocate
// policies, and hooks on refill and write-back. It is the substrate for
// the compression (E2), way-determination (E7) and stack-memory (E9)
// experiments: all of them need exact hit/miss behaviour, the way that
// served each access, and — for compression — the actual line contents
// crossing the cache/memory boundary.
//
//lint:hotpath
package cache

import (
	"fmt"
	"math"

	"lpmem/internal/trace"
)

// Config describes a cache geometry and policy.
type Config struct {
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// LineSize is the line length in bytes (power of two).
	LineSize int
	// WriteBack selects write-back (true) or write-through (false).
	WriteBack bool
	// WriteAllocate controls whether a store miss allocates the line.
	WriteAllocate bool
}

// Validate reports whether the configuration is well formed.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d must be a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d must be positive", c.Ways)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a positive power of two", c.LineSize)
	}
	return nil
}

// SizeBytes returns the total data capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// Stats accumulates access outcomes.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Refills    uint64
	WriteBacks uint64
	// WriteThroughs counts words forwarded to memory by a write-through
	// cache.
	WriteThroughs uint64
}

// HitRate returns hits/accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line is one cache line with data.
type line struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64 // last-use timestamp
	data  []byte
}

// Result describes the outcome of a single access.
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// Way is the way that served (or was filled by) the access.
	Way int
	// WroteBack reports whether a dirty line was evicted.
	WroteBack bool
	// WriteBackAddr is the base address of the written-back line.
	WriteBackAddr uint32
	// Evicted reports whether any valid line (clean or dirty) was
	// displaced by this access.
	Evicted bool
	// EvictedAddr is the base address of the displaced line.
	EvictedAddr uint32
}

// Backing supplies refill data and absorbs write-backs. The zero-value
// NullBacking can be used when contents don't matter.
type Backing interface {
	ReadLine(addr uint32, dst []byte)
	WriteLine(addr uint32, src []byte)
}

// NullBacking ignores writes and refills zeroes.
type NullBacking struct{}

// ReadLine fills dst with zeroes.
func (NullBacking) ReadLine(_ uint32, dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// WriteLine discards the line.
func (NullBacking) WriteLine(uint32, []byte) {}

// pageSize is MapBacking's allocation unit in bytes.
const pageSize = 1 << 12

// MapBacking is a sparse, paged backing store. Bytes never written read
// as zero; a page is allocated on the first write into it.
type MapBacking struct {
	pages map[uint32]*[pageSize]byte
}

// NewMapBacking returns an empty sparse backing store.
func NewMapBacking() *MapBacking { return &MapBacking{pages: make(map[uint32]*[pageSize]byte)} }

// ReadLine copies the line at addr into dst. A line may span pages, and
// addresses wrap at 2³².
func (b *MapBacking) ReadLine(addr uint32, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), pageSize-int(off))
		if p := b.pages[addr-off]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}

// WriteLine stores the line at addr. A line may span pages, and
// addresses wrap at 2³².
func (b *MapBacking) WriteLine(addr uint32, src []byte) {
	for len(src) > 0 {
		off := addr & (pageSize - 1)
		p := b.pages[addr-off]
		if p == nil {
			p = new([pageSize]byte)
			b.pages[addr-off] = p
		}
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint32(n)
	}
}

// Cache is the simulator proper.
type Cache struct {
	cfg     Config
	sets    [][]line
	stats   Stats
	backing Backing
	clock   uint64
	// OnWriteBack, when non-nil, observes every write-back with the line
	// base address and its (pre-eviction) contents.
	OnWriteBack func(addr uint32, data []byte)
	// OnRefill, when non-nil, observes every refill with the line base
	// address and the refilled contents.
	OnRefill func(addr uint32, data []byte)

	offBits uint32
	setMask uint32
	// scratch is the write-around line buffer, reused across misses so
	// the no-allocate store path does not allocate per access. Safe
	// because Backing implementations copy rather than retain the slice.
	scratch []byte
}

// New builds a cache. A nil backing defaults to NullBacking.
func New(cfg Config, backing Backing) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if backing == nil {
		backing = NullBacking{}
	}
	c := &Cache{cfg: cfg, backing: backing}
	// One flat allocation each for the way metadata and the line data,
	// sliced up per set/way: 2 allocations instead of Sets*(Ways+1), and
	// the replay loop walks contiguous memory.
	c.sets = make([][]line, cfg.Sets)
	lines := make([]line, cfg.Sets*cfg.Ways)
	data := make([]byte, cfg.Sets*cfg.Ways*cfg.LineSize)
	for i := range lines {
		lines[i].data = data[i*cfg.LineSize : (i+1)*cfg.LineSize : (i+1)*cfg.LineSize]
	}
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.scratch = make([]byte, cfg.LineSize)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		c.offBits++
	}
	c.setMask = uint32(cfg.Sets - 1)
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config, backing Backing) *Cache {
	c, err := New(cfg, backing)
	if err != nil {
		//lint:allow panicfree Must* helper; panicking on a bad static config is the documented contract
		panic(err)
	}
	return c
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint32) (set uint32, tag uint32, lineBase uint32) {
	lineBase = addr &^ (uint32(c.cfg.LineSize) - 1)
	set = (addr >> c.offBits) & c.setMask
	tag = addr >> c.offBits >> trailingBits(uint32(c.cfg.Sets))
	return
}

func trailingBits(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Lookup reports whether addr is present, without disturbing LRU state or
// statistics. It returns the way index, or -1.
func (c *Cache) Lookup(addr uint32) int {
	set, tag, _ := c.index(addr)
	for w := range c.sets[set] {
		if c.sets[set][w].valid && c.sets[set][w].tag == tag {
			return w
		}
	}
	return -1
}

// Access performs a read or write of width bytes at addr, with value used
// to update line contents on writes.
func (c *Cache) Access(addr uint32, isWrite bool, width uint8, value uint32) Result {
	c.clock++
	c.stats.Accesses++
	set, tag, lineBase := c.index(addr)
	ways := c.sets[set]

	// Hit path.
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = c.clock
			c.stats.Hits++
			if isWrite {
				c.storeToLine(&ways[w], addr, width, value)
				if c.cfg.WriteBack {
					ways[w].dirty = true
				} else {
					c.stats.WriteThroughs++
					c.backing.WriteLine(lineBase, ways[w].data)
				}
			}
			return Result{Hit: true, Way: w}
		}
	}

	// Miss path.
	c.stats.Misses++
	if isWrite && !c.cfg.WriteAllocate {
		// Write around: forward to memory, no allocation.
		c.stats.WriteThroughs++
		line := c.scratch
		c.backing.ReadLine(lineBase, line)
		storeBytes(line, addr-lineBase, width, value)
		c.backing.WriteLine(lineBase, line)
		return Result{Hit: false, Way: -1}
	}

	// Choose victim: invalid way first, else LRU.
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	res := Result{Hit: false, Way: victim}
	v := &ways[victim]
	if v.valid {
		res.Evicted = true
		res.EvictedAddr = c.rebuildAddr(v.tag, set)
	}
	if v.valid && v.dirty {
		oldBase := res.EvictedAddr
		c.stats.WriteBacks++
		res.WroteBack = true
		res.WriteBackAddr = oldBase
		if c.OnWriteBack != nil {
			c.OnWriteBack(oldBase, v.data)
		}
		c.backing.WriteLine(oldBase, v.data)
	}
	// Refill.
	c.stats.Refills++
	c.backing.ReadLine(lineBase, v.data)
	if c.OnRefill != nil {
		c.OnRefill(lineBase, v.data)
	}
	v.valid = true
	v.dirty = false
	v.tag = tag
	v.lru = c.clock
	if isWrite {
		c.storeToLine(v, addr, width, value)
		if c.cfg.WriteBack {
			v.dirty = true
		} else {
			c.stats.WriteThroughs++
			c.backing.WriteLine(lineBase, v.data)
		}
	}
	return res
}

func (c *Cache) rebuildAddr(tag, set uint32) uint32 {
	return (tag<<trailingBits(uint32(c.cfg.Sets))|set)<<c.offBits | 0
}

func (c *Cache) storeToLine(l *line, addr uint32, width uint8, value uint32) {
	off := addr & (uint32(c.cfg.LineSize) - 1)
	storeBytes(l.data, off, width, value)
}

func storeBytes(dst []byte, off uint32, width uint8, value uint32) {
	for i := uint32(0); i < uint32(width) && off+i < uint32(len(dst)); i++ {
		dst[off+i] = byte(value >> (8 * i))
	}
}

// Flush writes back all dirty lines (invoking OnWriteBack) and invalidates
// the cache. It returns the number of lines written back.
func (c *Cache) Flush() int {
	n := 0
	for set := range c.sets {
		for w := range c.sets[set] {
			l := &c.sets[set][w]
			if l.valid && l.dirty {
				base := c.rebuildAddr(l.tag, uint32(set))
				c.stats.WriteBacks++
				if c.OnWriteBack != nil {
					c.OnWriteBack(base, l.data)
				}
				c.backing.WriteLine(base, l.data)
				n++
			}
			l.valid = false
			l.dirty = false
		}
	}
	return n
}

// Replay runs a whole data trace (loads and stores; fetches are skipped)
// through the cache and returns the statistics.
func (c *Cache) Replay(t *trace.Trace) Stats {
	// A SliceCursor cannot fail, so the error is structurally nil here.
	st, _ := c.ReplayCursor(t.Cursor())
	return st
}

// MissTraffic replays t through a fresh cache of geometry cfg and returns
// the line-granular traffic below it, the stream a main memory behind the
// cache serves: each refill as a read and each write-back as a write, in
// order, with the line base as address and the line size as width. The
// replay's statistics come with it.
func MissTraffic(t *trace.Trace, cfg Config) (*trace.Trace, Stats, error) {
	if cfg.LineSize > math.MaxUint8 {
		return nil, Stats{}, fmt.Errorf("cache: line size %d does not fit a trace access width", cfg.LineSize)
	}
	c, err := New(cfg, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	miss := trace.New(4096)
	c.OnRefill = func(addr uint32, data []byte) {
		miss.Append(trace.Access{Addr: addr, Width: uint8(len(data)), Kind: trace.Read})
	}
	c.OnWriteBack = func(addr uint32, data []byte) {
		miss.Append(trace.Access{Addr: addr, Width: uint8(len(data)), Kind: trace.Write})
	}
	return miss, c.Replay(t), nil
}

// ReplayCursor streams an access cursor (loads and stores; fetches are
// skipped) through the cache. It is the zero-allocation replay path:
// paired with trace.NewReader it replays a binary on-disk trace of any
// length without materialising a []Access. The returned error is the
// cursor's: a decode failure ends the replay with the statistics
// accumulated so far.
func (c *Cache) ReplayCursor(cur trace.Cursor) (Stats, error) {
	for cur.Next() {
		a := cur.Access()
		if a.Kind == trace.Fetch {
			continue
		}
		c.Access(a.Addr, a.Kind == trace.Write, a.Width, a.Value)
	}
	return c.stats, cur.Err()
}
