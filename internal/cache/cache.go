// Package cache implements a tag-only set-associative cache simulator
// with LRU replacement, write-back/write-through and write-allocate
// policies, and hooks on refill and write-back. It is the substrate for
// the compression (E2), way-determination (E7) and stack-memory (E9)
// experiments: all of them need exact hit/miss behaviour and the way that
// served each access. No outcome depends on line contents, so the cache
// holds none. A caller that needs the bytes crossing the cache/memory
// boundary keeps them in a trace.Memory image and reads each refilled or
// written-back line from it in the hooks, as compress.MeasureTraffic
// does: with one writer, the image holds exactly what the line does.
//
//lint:hotpath
package cache

import (
	"fmt"
	"math"
	"math/bits"

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

// line is one cache line's tag state.
type line struct {
	valid bool
	dirty bool
	tag   uint32
	lru   uint64 // last-use timestamp
}

// Result describes the outcome of a single access.
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// Way is the way that served (or was filled by) the access.
	Way int
	// Evicted reports whether any valid line (clean or dirty) was
	// displaced by this access.
	Evicted bool
	// EvictedAddr is the base address of the displaced line.
	EvictedAddr uint32
}

// Cache is the simulator proper.
type Cache struct {
	cfg   Config
	sets  [][]line
	stats Stats
	clock uint64
	// OnWriteBack, when non-nil, observes every write-back with the line
	// base address.
	OnWriteBack func(addr uint32)
	// OnRefill, when non-nil, observes every refill with the line base
	// address.
	OnRefill func(addr uint32)

	offBits uint32
	setBits uint32
	setMask uint32
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	// One flat allocation for the way metadata, sliced up per set: the
	// replay loop walks contiguous memory.
	c.sets = make([][]line, cfg.Sets)
	lines := make([]line, cfg.Sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = lines[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	c.offBits = uint32(bits.TrailingZeros(uint(cfg.LineSize)))
	c.setBits = uint32(bits.TrailingZeros(uint(cfg.Sets)))
	c.setMask = uint32(cfg.Sets - 1)
	return c, nil
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Access performs a read or write at addr.
func (c *Cache) Access(addr uint32, isWrite bool) Result {
	c.clock++
	c.stats.Accesses++
	set := (addr >> c.offBits) & c.setMask
	tag := addr >> c.offBits >> c.setBits
	ways := c.sets[set]

	// Hit path.
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = c.clock
			c.stats.Hits++
			if isWrite {
				c.write(&ways[w])
			}
			return Result{Hit: true, Way: w}
		}
	}

	// Miss path.
	c.stats.Misses++
	if isWrite && !c.cfg.WriteAllocate {
		// Write around: forward to memory, no allocation.
		c.stats.WriteThroughs++
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
		if v.dirty {
			c.writeBack(res.EvictedAddr)
		}
	}
	// Refill.
	c.stats.Refills++
	if c.OnRefill != nil {
		c.OnRefill(addr &^ (uint32(c.cfg.LineSize) - 1))
	}
	*v = line{valid: true, tag: tag, lru: c.clock}
	if isWrite {
		c.write(v)
	}
	return res
}

// write applies a store to a resident line: a write-back cache dirties
// it, a write-through cache forwards the word to memory.
func (c *Cache) write(l *line) {
	if c.cfg.WriteBack {
		l.dirty = true
	} else {
		c.stats.WriteThroughs++
	}
}

// writeBack counts a dirty line leaving the cache and reports it to
// OnWriteBack.
func (c *Cache) writeBack(base uint32) {
	c.stats.WriteBacks++
	if c.OnWriteBack != nil {
		c.OnWriteBack(base)
	}
}

func (c *Cache) rebuildAddr(tag, set uint32) uint32 {
	return (tag<<c.setBits | set) << c.offBits
}

// Flush writes back all dirty lines (invoking OnWriteBack) and invalidates
// the cache. It returns the number of lines written back.
func (c *Cache) Flush() int {
	n := 0
	for set := range c.sets {
		for w := range c.sets[set] {
			l := &c.sets[set][w]
			if l.valid && l.dirty {
				c.writeBack(c.rebuildAddr(l.tag, uint32(set)))
				n++
			}
			*l = line{}
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
	c, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	miss := trace.New(4096)
	width := uint8(cfg.LineSize)
	c.OnRefill = func(addr uint32) {
		miss.Append(trace.Access{Addr: addr, Width: width, Kind: trace.Read})
	}
	c.OnWriteBack = func(addr uint32) {
		miss.Append(trace.Access{Addr: addr, Width: width, Kind: trace.Write})
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
		c.Access(a.Addr, a.Kind == trace.Write)
	}
	return c.stats, cur.Err()
}

// StackHits replays the loads and stores of t (fetches are skipped)
// through one LRU stack per set, each depth tags deep, for sets sets of
// lineSize-byte lines, split into set and tag as Access splits them. It
// returns the number of accesses and, for each depth d < depth, how many
// accesses found their line d places below the top of its set's stack,
// that is, behind d more recently used lines.
//
// By LRU stack inclusion, a cache of the same sets and line size with
// w <= depth ways hits exactly the accesses at depths below w, so its
// Stats.Hits is hits[0] + ... + hits[w-1]: one pass prices every
// associativity up to depth. The precondition is write-allocate: every
// miss must install its line, as Access does with WriteAllocate set. A
// write-around store miss leaves its set unchanged, and there the sum
// does not hold. The write policy does not matter, since no hit or miss
// depends on it.
func StackHits(t *trace.Trace, sets, lineSize, depth int) (uint64, []uint64, error) {
	if err := (Config{Sets: sets, Ways: depth, LineSize: lineSize}).Validate(); err != nil {
		return 0, nil, err
	}
	offBits := uint32(bits.TrailingZeros(uint(lineSize)))
	setBits := uint32(bits.TrailingZeros(uint(sets)))
	setMask := uint32(sets - 1)
	// Set s's stack is stacks[s*depth:(s+1)*depth], most recent tag
	// first; fill[s] counts its valid tags.
	stacks := make([]uint32, sets*depth)
	fill := make([]int, sets)
	hits := make([]uint64, depth)
	var accesses uint64
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		accesses++
		set := int((a.Addr >> offBits) & setMask)
		tag := a.Addr >> offBits >> setBits
		stack := stacks[set*depth : (set+1)*depth]
		n := fill[set]
		d := 0
		for d < n && stack[d] != tag {
			d++
		}
		switch {
		case d < n:
			hits[d]++
		case n < depth:
			fill[set]++
		default:
			// A miss in a full stack drops its least recently used tag.
			d--
		}
		for ; d > 0; d-- {
			stack[d] = stack[d-1]
		}
		stack[0] = tag
	}
	return accesses, hits, nil
}
