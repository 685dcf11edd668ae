// Package nuca models a shared, banked, optionally compressed last-level
// cache for chip multiprocessors: the NUCA (non-uniform cache
// architecture) scenario the paper's scaling challenges lead to once a
// single core stops being the design point.
//
// The model composes three existing substrates. Banks sit on tiles of an
// internal/noc mesh, so the latency and energy of reaching a bank grow
// with Manhattan hop distance from the issuing core's tile — the
// "non-uniform" in NUCA. Line contents are real bytes: under CompDiff
// the LLC keeps every store in one trace.Memory image, the lines hold
// tags only, and the internal/compress differential codec sizes a line
// from the image whenever it is filled or written, so a compressed line
// occupies only its segments, enlarging effective capacity the way the
// compression-based NUCA proposals do (arXiv 2201.00774). Multi-core
// interleaved traces from internal/trace drive the replay.
//
// Capacity is segmented: each set owns Ways×LineSize data bytes divided
// into 8-byte segments plus TagFactor×Ways tags, so compression can at
// most multiply residency by TagFactor, and a line that compresses badly
// is stored raw (capacity is never worse than the uncompressed cache).
//
// Callers choose the core and bank counts, the sets per bank and the two
// policies; the rest of the micro-architecture (associativity, line and
// segment size, cycle counts, mesh and energy model) is fixed.
//
//lint:hotpath
package nuca

import (
	"fmt"

	"lpmem/internal/compress"
	"lpmem/internal/energy"
	"lpmem/internal/noc"
	"lpmem/internal/trace"
)

// MappingPolicy selects how line addresses are distributed over banks.
type MappingPolicy string

// The bank-mapping policies.
const (
	// MapStatic interleaves consecutive lines over banks round-robin,
	// ignoring which core touches them.
	MapStatic MappingPolicy = "static"
	// MapDistance assigns each page, on first touch, to the bank nearest
	// the touching core's tile: the D-NUCA-style locality policy that
	// trades bank-load balance for shorter average hop distance.
	MapDistance MappingPolicy = "distance"
)

// MappingPolicies lists the policies in canonical order.
func MappingPolicies() []MappingPolicy { return []MappingPolicy{MapStatic, MapDistance} }

// CompressionPolicy selects how resident lines are sized.
type CompressionPolicy string

// The compression policies.
const (
	// CompNone stores every line raw.
	CompNone CompressionPolicy = "none"
	// CompDiff sizes lines with the differential codec of
	// internal/compress, falling back to raw storage when the encoding
	// would expand.
	CompDiff CompressionPolicy = "diff"
	// CompIdeal is the oracle bound: every line compresses to half size.
	CompIdeal CompressionPolicy = "ideal"
)

// CompressionPolicies lists the policies in canonical order.
func CompressionPolicies() []CompressionPolicy {
	return []CompressionPolicy{CompNone, CompDiff, CompIdeal}
}

// pageBytes is the granularity of the first-touch mapping policy.
const pageBytes = 4096

// The fixed micro-architecture.
const (
	// Ways is each set's associativity.
	Ways = 4
	// LineSize is the line length in bytes.
	LineSize = 32
	// TagFactor bounds resident lines per set at TagFactor×Ways tags.
	TagFactor = 2

	// lineShift is log2(LineSize).
	lineShift = 5
	// segmentBytes is the compressed-storage granularity, a power of two
	// dividing LineSize.
	segmentBytes = 8
	// bankCycles is a bank's access latency, hopCycles the per-hop mesh
	// latency (charged each way), decompressCycles the extra latency of a
	// hit on a compressed-resident line and memCycles the main-memory
	// miss penalty.
	bankCycles       = 4
	hopCycles        = 2
	decompressCycles = 2
	memCycles        = 100
	// mainMemBytes sizes the main-memory energy charge.
	mainMemBytes = 8 << 20
)

// Config describes the shared LLC.
type Config struct {
	// Cores is the number of cores issuing accesses (1..256).
	Cores int
	// Banks is the number of cache banks placed on the mesh.
	Banks int
	// SetsPerBank is each bank's set count.
	SetsPerBank int
	// Mapping is the bank-mapping policy. Empty means MapStatic.
	Mapping MappingPolicy
	// Compression is the line-sizing policy. Empty means CompNone.
	Compression CompressionPolicy
}

// Validate reports whether the configuration, with its policies
// resolved, is well formed.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > 256 {
		return fmt.Errorf("nuca: cores %d outside 1..256", c.Cores)
	}
	if c.Banks < 1 {
		return fmt.Errorf("nuca: banks %d must be positive", c.Banks)
	}
	if c.SetsPerBank < 1 {
		return fmt.Errorf("nuca: sets per bank %d must be positive", c.SetsPerBank)
	}
	switch c.Mapping {
	case MapStatic, MapDistance:
	default:
		return fmt.Errorf("nuca: unknown mapping policy %q", c.Mapping)
	}
	switch c.Compression {
	case CompNone, CompDiff, CompIdeal:
	default:
		return fmt.Errorf("nuca: unknown compression policy %q", c.Compression)
	}
	return nil
}

// CapacityBytes returns the nominal (uncompressed) data capacity.
func (c Config) CapacityBytes() int { return c.Banks * c.SetsPerBank * Ways * LineSize }

// Stats is the outcome of a replay.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// Expansions counts write hits that grew a compressed line's segment
	// charge; a grown line evicts neighbours if its set overflows.
	Expansions uint64
	// Latency is the summed access latency in cycles.
	Latency uint64
	// CoreMisses[c] counts the misses of core c.
	CoreMisses []uint64
	// ResidentLines and ResidentSegBytes describe the snapshot state:
	// lines held and the segment bytes they occupy.
	ResidentLines    uint64
	ResidentSegBytes uint64
	// Energy breakdown.
	BankEnergy energy.PJ
	NoCEnergy  energy.PJ
	MemEnergy  energy.PJ
}

// HitRate returns hits/accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// AvgLatency returns mean cycles per access (0 for no accesses).
func (s Stats) AvgLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Latency) / float64(s.Accesses)
}

// TotalEnergy sums the energy components.
func (s Stats) TotalEnergy() energy.PJ { return s.BankEnergy + s.NoCEnergy + s.MemEnergy }

// EffectiveCapacityRatio reports how much uncompressed data the resident
// lines represent per stored segment byte: 1.0 for an uncompressed
// cache, > 1 when compression packs lines into fewer segments. An empty
// cache reports 1.
func (s Stats) EffectiveCapacityRatio() float64 {
	if s.ResidentSegBytes == 0 {
		return 1
	}
	// Every resident line charges segBytes ≤ LineSize, so the ratio is
	// ≥ 1: compression can only enlarge effective capacity.
	return float64(s.ResidentLines) * LineSize / float64(s.ResidentSegBytes)
}

// cline is one resident (possibly compressed) line.
type cline struct {
	base  uint32 // line base address
	lru   uint64
	dirty bool
	// segBytes is the storage charged against the set budget:
	// min(csize, LineSize) rounded up to whole segments.
	segBytes int
}

// set is one bank set: a dynamic roster bounded by tags and bytes.
type set struct {
	lines []cline
	used  int // Σ segBytes
}

// LLC is the shared last-level cache simulator. Every per-access lookup
// is an indexed load: sets are rows of one slice, each set's roster is
// cut from one backing allocated by New, and MapDistance's first-touch
// map is a trace.PageTable, so a replay allocates only the page-table
// leaves and image pages it touches.
type LLC struct {
	cfg   Config
	banks [][]set
	// pageBank is MapDistance's first-touch map: page number → bank+1,
	// where 0 marks a page not yet touched.
	pageBank trace.PageTable[int32]
	clock    uint64
	stats    Stats
	// mem holds the bytes of every line, resident or not, under
	// CompDiff, the one policy that sizes a line by its contents; the
	// others never write it. With the LLC as the only writer, a resident
	// line holds what the image does, so write-backs and refills move no
	// bytes. line is sizeLine's reused read buffer.
	mem  trace.Memory
	line [LineSize]byte
	diff bool // Compression == CompDiff

	// nBanks and nSets are Banks and SetsPerBank as 32-bit divisors:
	// line numbers are 32-bit, and both counts are far below 2³² for any
	// geometry New can allocate, so the quotients and remainders are
	// those of int division.
	nBanks, nSets uint32

	// hops[c*Banks+b] is the mesh distance from core c's tile to bank
	// b's tile.
	hops []int
	// memReadE/memWriteE/bankReadE/bankWriteE are precomputed per-event
	// energies; wordNoCE[h]/lineNoCE[h] are per-hop-count NoC charges for
	// a word and a full line.
	memReadE, memWriteE   energy.PJ
	bankReadE, bankWriteE energy.PJ
	wordNoCE, lineNoCE    []energy.PJ
}

// New builds an LLC from the configuration. An empty Mapping or
// Compression selects MapStatic or CompNone.
func New(cfg Config) (*LLC, error) {
	if cfg.Mapping == "" {
		cfg.Mapping = MapStatic
	}
	if cfg.Compression == "" {
		cfg.Compression = CompNone
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &LLC{
		cfg:    cfg,
		banks:  make([][]set, cfg.Banks),
		diff:   cfg.Compression == CompDiff,
		nBanks: uint32(cfg.Banks),
		nSets:  uint32(cfg.SetsPerBank),
	}
	// Per-bank rows and per-set rosters are slices of one allocation
	// each: a make per bank or set is a per-iteration allocation. A
	// roster holds at most TagFactor×Ways lines (makeRoom evicts below
	// that before every insert), so its appends never outgrow its
	// capacity.
	sets := make([]set, cfg.Banks*cfg.SetsPerBank)
	for b := range l.banks {
		l.banks[b] = sets[b*cfg.SetsPerBank : (b+1)*cfg.SetsPerBank]
	}
	const tags = TagFactor * Ways
	lines := make([]cline, len(sets)*tags)
	for i := range sets {
		sets[i].lines = lines[i*tags : i*tags : (i+1)*tags]
	}
	// Banks sit on the smallest near-square mesh with a tile per bank,
	// and cores and banks spread evenly over its tiles.
	w := 1
	for w*w < cfg.Banks {
		w++
	}
	mesh := noc.DefaultMesh()
	mesh.W, mesh.H = w, (cfg.Banks+w-1)/w
	tiles := mesh.Tiles()
	l.hops = make([]int, cfg.Cores*cfg.Banks)
	for c := 0; c < cfg.Cores; c++ {
		for b := 0; b < cfg.Banks; b++ {
			l.hops[c*cfg.Banks+b] = mesh.Dist(c*tiles/cfg.Cores, b*tiles/cfg.Banks)
		}
	}
	model := energy.DefaultMemoryModel()
	bankBytes := uint32(cfg.SetsPerBank * Ways * LineSize)
	l.memReadE = model.ReadEnergy(mainMemBytes)
	l.memWriteE = model.WriteEnergy(mainMemBytes)
	l.bankReadE = model.ReadEnergy(bankBytes) + model.SelectEnergy(cfg.Banks)
	l.bankWriteE = model.WriteEnergy(bankBytes) + model.SelectEnergy(cfg.Banks)
	maxHops := mesh.W + mesh.H // > any Manhattan distance on the mesh
	l.wordNoCE = make([]energy.PJ, maxHops+1)
	l.lineNoCE = make([]energy.PJ, maxHops+1)
	for h := 0; h <= maxHops; h++ {
		l.wordNoCE[h] = energy.PJ(32) * mesh.BitEnergy(h)
		l.lineNoCE[h] = energy.PJ(8*LineSize) * mesh.BitEnergy(h)
	}
	l.stats.CoreMisses = make([]uint64, cfg.Cores)
	return l, nil
}

// HitLatency returns the latency of an uncompressed hit to a bank h hops
// away: bank access plus a round trip over the mesh. It is exposed so
// the monotonicity property (latency never decreases with distance) can
// be pinned directly.
func HitLatency(hops int) int { return bankCycles + 2*hops*hopCycles }

// locate maps a line base address touched by core to its bank and its
// set within that bank.
func (l *LLC) locate(base uint32, core int) (bank, set int) {
	lineNum := base >> lineShift
	if l.cfg.Mapping == MapStatic {
		// Consecutive lines rotate over banks, so the bank offset is
		// stripped before set selection or only 1/gcd of the sets would
		// ever be used.
		return int(lineNum % l.nBanks), int(lineNum / l.nBanks % l.nSets)
	}
	page := base / pageBytes
	if b := l.pageBank.Get(page); b != 0 {
		return int(b - 1), int(lineNum % l.nSets)
	}
	// First touch: nearest bank to the core's tile, ties to the lower
	// bank index, so the choice is deterministic.
	hops := l.hops[core*l.cfg.Banks : (core+1)*l.cfg.Banks]
	best := 0
	for b, d := range hops {
		if d < hops[best] {
			best = b
		}
	}
	l.pageBank.Set(page, int32(best+1))
	return best, int(lineNum % l.nSets)
}

// sizeLine returns the storage charge for the current contents of the
// line at base.
func (l *LLC) sizeLine(base uint32) int {
	var csize int
	switch l.cfg.Compression {
	case CompDiff:
		l.mem.ReadLine(base, l.line[:])
		csize = compress.Differential{}.Size(l.line[:])
		if csize > LineSize {
			csize = LineSize // store raw rather than expand
		}
	case CompIdeal:
		csize = LineSize / 2
	default:
		csize = LineSize
	}
	return (csize + segmentBytes - 1) &^ (segmentBytes - 1)
}

// evictLRU removes the least-recently-used line from s, excluding keep
// (an index into s.lines, or -1), writing it back if dirty. It reports
// false if nothing was evictable.
func (l *LLC) evictLRU(s *set, keep int) bool {
	victim := -1
	for i := range s.lines {
		if i == keep {
			continue
		}
		if victim < 0 || s.lines[i].lru < s.lines[victim].lru {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	v := &s.lines[victim]
	if v.dirty {
		// Write-back: line to main memory over the NoC is charged as a
		// memory write; hop distance bank→controller is folded into the
		// flat memory energy.
		l.stats.MemEnergy += l.memWriteE
	}
	s.used -= v.segBytes
	l.stats.ResidentLines--
	l.stats.ResidentSegBytes -= uint64(v.segBytes)
	s.lines[victim] = s.lines[len(s.lines)-1]
	s.lines = s.lines[:len(s.lines)-1]
	return true
}

// makeRoom evicts until the set can hold need more segment bytes and one
// more tag (if addTag), excluding keep from eviction.
func (l *LLC) makeRoom(s *set, need, keep int, addTag bool) {
	for s.used+need > Ways*LineSize {
		if !l.evictLRU(s, keep) {
			return
		}
	}
	for addTag && len(s.lines) >= TagFactor*Ways {
		if !l.evictLRU(s, keep) {
			return
		}
	}
}

// access replays one reference from core through the shared cache.
func (l *LLC) access(a trace.Access) {
	l.clock++
	core := int(a.Core)
	if core >= l.cfg.Cores {
		core = l.cfg.Cores - 1 // clamp stray IDs rather than crash
	}
	base := a.Addr &^ (LineSize - 1)
	bank, si := l.locate(base, core)
	s := &l.banks[bank][si]
	hops := l.hops[core*l.cfg.Banks+bank]
	isWrite := a.Kind == trace.Write

	l.stats.Accesses++
	// Every access probes the bank and crosses the mesh with a word.
	if isWrite {
		l.stats.BankEnergy += l.bankWriteE
	} else {
		l.stats.BankEnergy += l.bankReadE
	}
	l.stats.NoCEnergy += l.wordNoCE[hops]

	// Hit path.
	for i := range s.lines {
		if s.lines[i].base != base {
			continue
		}
		ln := &s.lines[i]
		ln.lru = l.clock
		lat := HitLatency(hops)
		if ln.segBytes < LineSize {
			lat += decompressCycles
		}
		if isWrite {
			ln.dirty = true
		}
		if isWrite && l.diff {
			l.mem.Store(a.Addr, a.Width, a.Value)
			// Re-size: a store can break value locality and expand the
			// line past its segments. The other policies size every
			// line alike, so a store cannot change theirs.
			newSeg := l.sizeLine(base)
			if newSeg != ln.segBytes {
				if newSeg > ln.segBytes {
					l.stats.Expansions++
				}
				s.used += newSeg - ln.segBytes
				l.stats.ResidentSegBytes += uint64(newSeg) - uint64(ln.segBytes)
				ln.segBytes = newSeg
				l.makeRoom(s, 0, i, false)
			}
		}
		l.stats.Hits++
		l.stats.Latency += uint64(lat)
		return
	}

	// Miss path: refill from main memory, apply the store, insert.
	l.stats.Misses++
	l.stats.CoreMisses[core]++
	l.stats.MemEnergy += l.memReadE
	l.stats.NoCEnergy += l.lineNoCE[hops]

	if isWrite && l.diff {
		l.mem.Store(a.Addr, a.Width, a.Value)
	}
	seg := l.sizeLine(base)
	l.makeRoom(s, seg, -1, true)
	s.lines = append(s.lines, cline{
		base:     base,
		lru:      l.clock,
		dirty:    isWrite,
		segBytes: seg,
	})
	s.used += seg
	l.stats.ResidentLines++
	l.stats.ResidentSegBytes += uint64(seg)
	l.stats.BankEnergy += l.bankWriteE // the refill write into the bank

	l.stats.Latency += uint64(HitLatency(hops) + memCycles)
}

// Stats returns a snapshot of the accumulated statistics. The returned
// value owns a copy of the per-core misses, so further replay does not
// mutate it.
func (l *LLC) Stats() Stats {
	s := l.stats
	s.CoreMisses = append([]uint64(nil), l.stats.CoreMisses...)
	return s
}

// Replay runs a whole data trace (fetches are skipped) through the LLC.
func (l *LLC) Replay(t *trace.Trace) Stats {
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		l.access(a)
	}
	return l.Stats()
}
