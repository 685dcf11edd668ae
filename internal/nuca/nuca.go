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
// interleaved traces from internal/trace drive the replay, with per-core
// and per-bank accounting throughout.
//
// Capacity is segmented: each set owns Ways×LineSize data bytes divided
// into SegmentBytes segments plus TagFactor×Ways tags, so compression can
// at most multiply residency by TagFactor, and a line that compresses
// badly is stored raw (capacity is never worse than the uncompressed
// cache).
//
//lint:hotpath
package nuca

import (
	"fmt"
	"math/bits"

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

// Config describes the shared LLC.
type Config struct {
	// Cores is the number of cores issuing accesses (1..256).
	Cores int
	// Banks is the number of cache banks placed on the mesh.
	Banks int
	// SetsPerBank and Ways give each bank's geometry.
	SetsPerBank int
	Ways        int
	// LineSize is the line length in bytes (power of two, ≥ 8).
	LineSize int
	// SegmentBytes is the compressed-storage granularity; must divide
	// LineSize. Zero defaults to 8.
	SegmentBytes int
	// TagFactor bounds resident lines per set at TagFactor×Ways tags.
	// Zero defaults to 2.
	TagFactor int
	// Mapping is the bank-mapping policy. Empty defaults to MapStatic.
	Mapping MappingPolicy
	// Compression is the line-sizing policy. Empty defaults to CompNone.
	Compression CompressionPolicy
	// Mesh is the on-chip network carrying core↔bank traffic. The zero
	// mesh defaults to the smallest near-square mesh with a tile per bank.
	Mesh noc.Mesh
	// BankCycles is a bank's access latency. Zero defaults to 4.
	BankCycles int
	// HopCycles is the per-hop mesh latency (charged each way). Zero
	// defaults to 2.
	HopCycles int
	// DecompressCycles is added to hits on compressed-resident lines.
	// Zero defaults to 2.
	DecompressCycles int
	// MemCycles is the main-memory miss penalty. Zero defaults to 100.
	MemCycles int
	// MainMemBytes sizes the main-memory energy charge. Zero defaults to
	// 8 MiB.
	MainMemBytes uint32
	// Model prices bank probes and main-memory transfers. The zero model
	// defaults to energy.DefaultMemoryModel().
	Model energy.MemoryModel
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8
	}
	if c.TagFactor == 0 {
		c.TagFactor = 2
	}
	if c.Mapping == "" {
		c.Mapping = MapStatic
	}
	if c.Compression == "" {
		c.Compression = CompNone
	}
	if c.Mesh.W == 0 && c.Mesh.H == 0 {
		w := 1
		for w*w < c.Banks {
			w++
		}
		h := (c.Banks + w - 1) / w
		def := noc.DefaultMesh()
		c.Mesh = noc.Mesh{W: w, H: h, LinkBW: def.LinkBW, ERbit: def.ERbit, ELbit: def.ELbit}
	}
	if c.BankCycles == 0 {
		c.BankCycles = 4
	}
	if c.HopCycles == 0 {
		c.HopCycles = 2
	}
	if c.DecompressCycles == 0 {
		c.DecompressCycles = 2
	}
	if c.MemCycles == 0 {
		c.MemCycles = 100
	}
	if c.MainMemBytes == 0 {
		c.MainMemBytes = 8 << 20
	}
	if c.Model.Validate() != nil {
		c.Model = energy.DefaultMemoryModel()
	}
	return c
}

// Validate reports whether the (defaulted) configuration is well formed.
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
	if c.Ways < 1 {
		return fmt.Errorf("nuca: ways %d must be positive", c.Ways)
	}
	if c.LineSize < 8 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("nuca: line size %d must be a power of two ≥ 8", c.LineSize)
	}
	if c.SegmentBytes < 1 || c.LineSize%c.SegmentBytes != 0 {
		return fmt.Errorf("nuca: segment size %d must divide line size %d", c.SegmentBytes, c.LineSize)
	}
	if c.TagFactor < 1 {
		return fmt.Errorf("nuca: tag factor %d must be positive", c.TagFactor)
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
	if c.Banks > c.Mesh.Tiles() {
		return fmt.Errorf("nuca: %d banks exceed %d mesh tiles", c.Banks, c.Mesh.Tiles())
	}
	return nil
}

// CapacityBytes returns the nominal (uncompressed) data capacity.
func (c Config) CapacityBytes() int { return c.Banks * c.SetsPerBank * c.Ways * c.LineSize }

// CoreStats is the per-core accounting of a replay.
type CoreStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// Latency is the summed access latency in cycles.
	Latency uint64
}

// BankStats is the per-bank accounting of a replay.
type BankStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	WriteBacks uint64
	// Occupancy[c] counts lines resident at snapshot time that were
	// inserted by core c; summed over cores it equals the bank's resident
	// line count (the conservation property tests pin).
	Occupancy []uint64
}

// Stats is the outcome of a replay.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Refills    uint64
	WriteBacks uint64
	// Expansions counts write hits that grew a compressed line enough to
	// evict a neighbour from its set.
	Expansions uint64
	// Latency is the summed access latency in cycles.
	Latency uint64
	PerCore []CoreStats
	PerBank []BankStats
	// ResidentLines and ResidentSegBytes describe the snapshot state:
	// lines held and the segment bytes they occupy.
	ResidentLines    uint64
	ResidentSegBytes uint64
	// Energy breakdown.
	BankEnergy energy.PJ
	NoCEnergy  energy.PJ
	MemEnergy  energy.PJ

	// lineSize lets EffectiveCapacityRatio relate resident lines to
	// segment bytes without a Config. Set by LLC.Stats.
	lineSize int
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
	return float64(s.ResidentLines) * float64(s.lineSize) / float64(s.ResidentSegBytes)
}

// cline is one resident (possibly compressed) line.
type cline struct {
	base  uint32 // line base address
	lru   uint64
	core  uint8 // inserting core, for occupancy attribution
	dirty bool
	// segBytes is the storage charged against the set budget:
	// ceil(min(csize, LineSize)/SegmentBytes)×SegmentBytes.
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
	line []byte
	diff bool // Compression == CompDiff

	// lineShift is log2(LineSize). nBanks and nSets are Banks and
	// SetsPerBank as 32-bit divisors: line numbers are 32-bit, and both
	// counts are far below 2³² for any geometry New can allocate, so the
	// quotients and remainders are those of int division.
	lineShift, nBanks, nSets uint32

	// hops[c*Banks+b] is the mesh distance from core c's tile to bank
	// b's tile.
	hops []int
	// bankBytes is one bank's data capacity, pricing bank probes.
	bankBytes uint32
	// memReadE/memWriteE/bankReadE/bankWriteE are precomputed per-event
	// energies; wordBitE[h]/lineBitE[h] are per-hop-count NoC charges for
	// a word and a full line.
	memReadE, memWriteE   energy.PJ
	bankReadE, bankWriteE energy.PJ
	wordNoCE, lineNoCE    []energy.PJ
}

// New builds an LLC from the configuration (after defaulting).
func New(cfg Config) (*LLC, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &LLC{
		cfg:       cfg,
		banks:     make([][]set, cfg.Banks),
		line:      make([]byte, cfg.LineSize),
		diff:      cfg.Compression == CompDiff,
		lineShift: uint32(bits.TrailingZeros(uint(cfg.LineSize))),
		nBanks:    uint32(cfg.Banks),
		nSets:     uint32(cfg.SetsPerBank),
	}
	// Per-bank rows (sets here, occupancy below) and per-set rosters are
	// slices of one allocation each: a make per bank or set is a
	// per-iteration allocation. A roster holds at most TagFactor×Ways
	// lines (makeRoom evicts below that before every insert), so its
	// appends never outgrow its capacity.
	sets := make([]set, cfg.Banks*cfg.SetsPerBank)
	for b := range l.banks {
		l.banks[b] = sets[b*cfg.SetsPerBank : (b+1)*cfg.SetsPerBank]
	}
	tags := cfg.TagFactor * cfg.Ways
	lines := make([]cline, len(sets)*tags)
	for i := range sets {
		sets[i].lines = lines[i*tags : i*tags : (i+1)*tags]
	}
	// Cores and banks spread evenly over the tiles.
	tiles := cfg.Mesh.Tiles()
	l.hops = make([]int, cfg.Cores*cfg.Banks)
	for c := 0; c < cfg.Cores; c++ {
		for b := 0; b < cfg.Banks; b++ {
			l.hops[c*cfg.Banks+b] = cfg.Mesh.Dist(c*tiles/cfg.Cores, b*tiles/cfg.Banks)
		}
	}
	l.bankBytes = uint32(cfg.SetsPerBank * cfg.Ways * cfg.LineSize)
	l.memReadE = cfg.Model.ReadEnergy(cfg.MainMemBytes)
	l.memWriteE = cfg.Model.WriteEnergy(cfg.MainMemBytes)
	l.bankReadE = cfg.Model.ReadEnergy(l.bankBytes) + cfg.Model.SelectEnergy(cfg.Banks)
	l.bankWriteE = cfg.Model.WriteEnergy(l.bankBytes) + cfg.Model.SelectEnergy(cfg.Banks)
	maxHops := cfg.Mesh.W + cfg.Mesh.H // > any Manhattan distance on the mesh
	l.wordNoCE = make([]energy.PJ, maxHops+1)
	l.lineNoCE = make([]energy.PJ, maxHops+1)
	for h := 0; h <= maxHops; h++ {
		l.wordNoCE[h] = energy.PJ(32) * cfg.Mesh.BitEnergy(h)
		l.lineNoCE[h] = energy.PJ(8*cfg.LineSize) * cfg.Mesh.BitEnergy(h)
	}
	l.stats.PerCore = make([]CoreStats, cfg.Cores)
	l.stats.PerBank = make([]BankStats, cfg.Banks)
	occupancy := make([]uint64, cfg.Banks*cfg.Cores)
	for b := range l.stats.PerBank {
		l.stats.PerBank[b].Occupancy = occupancy[b*cfg.Cores : (b+1)*cfg.Cores]
	}
	return l, nil
}

// Config returns the defaulted configuration.
func (l *LLC) Config() Config { return l.cfg }

// HitLatency returns the latency of an uncompressed hit to a bank h hops
// away: bank access plus a round trip over the mesh. It is exposed so
// the monotonicity property (latency never decreases with distance) can
// be pinned directly.
func (l *LLC) HitLatency(hops int) int {
	return l.cfg.BankCycles + 2*hops*l.cfg.HopCycles
}

// locate maps a line base address touched by core to its bank and its
// set within that bank.
func (l *LLC) locate(base uint32, core int) (bank, set int) {
	lineNum := base >> l.lineShift
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
		l.mem.ReadLine(base, l.line)
		csize = compress.Differential{}.Size(l.line)
		if csize > l.cfg.LineSize {
			csize = l.cfg.LineSize // store raw rather than expand
		}
	case CompIdeal:
		csize = l.cfg.LineSize / 2
	default:
		csize = l.cfg.LineSize
	}
	// SegmentBytes divides the power-of-two LineSize, so it is a power
	// of two too, and rounding up to it is a mask.
	seg := l.cfg.SegmentBytes
	return (csize + seg - 1) &^ (seg - 1)
}

// evictLRU removes the least-recently-used line from s, excluding keep
// (an index into s.lines, or -1), writing it back if dirty. It reports
// false if nothing was evictable.
func (l *LLC) evictLRU(bank int, s *set, keep int) bool {
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
		l.stats.WriteBacks++
		l.stats.PerBank[bank].WriteBacks++
		// Write-back: line to main memory over the NoC is charged as a
		// memory write; hop distance bank→controller is folded into the
		// flat memory energy.
		l.stats.MemEnergy += l.memWriteE
	}
	s.used -= v.segBytes
	l.stats.ResidentLines--
	l.stats.ResidentSegBytes -= uint64(v.segBytes)
	l.stats.PerBank[bank].Occupancy[v.core]--
	s.lines[victim] = s.lines[len(s.lines)-1]
	s.lines = s.lines[:len(s.lines)-1]
	return true
}

// makeRoom evicts until the set can hold need more segment bytes and one
// more tag (if addTag), excluding keep from eviction.
func (l *LLC) makeRoom(bank int, s *set, need, keep int, addTag bool) {
	budget := l.cfg.Ways * l.cfg.LineSize
	tagLimit := l.cfg.TagFactor * l.cfg.Ways
	for s.used+need > budget {
		if !l.evictLRU(bank, s, keep) {
			return
		}
	}
	for addTag && len(s.lines) >= tagLimit {
		if !l.evictLRU(bank, s, keep) {
			return
		}
	}
}

// Access replays one reference from core through the shared cache and
// returns its latency in cycles.
func (l *LLC) Access(a trace.Access) int {
	l.clock++
	core := int(a.Core)
	if core >= l.cfg.Cores {
		core = l.cfg.Cores - 1 // clamp stray IDs rather than crash
	}
	base := a.Addr &^ (uint32(l.cfg.LineSize) - 1)
	bank, si := l.locate(base, core)
	s := &l.banks[bank][si]
	hops := l.hops[core*l.cfg.Banks+bank]
	isWrite := a.Kind == trace.Write

	l.stats.Accesses++
	l.stats.PerCore[core].Accesses++
	l.stats.PerBank[bank].Accesses++
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
		lat := l.HitLatency(hops)
		if ln.segBytes < l.cfg.LineSize {
			lat += l.cfg.DecompressCycles
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
				l.makeRoom(bank, s, 0, i, false)
			}
		}
		l.stats.Hits++
		l.stats.PerCore[core].Hits++
		l.stats.PerBank[bank].Hits++
		l.stats.Latency += uint64(lat)
		l.stats.PerCore[core].Latency += uint64(lat)
		return lat
	}

	// Miss path: refill from main memory, apply the store, insert.
	l.stats.Misses++
	l.stats.PerCore[core].Misses++
	l.stats.PerBank[bank].Misses++
	l.stats.Refills++
	l.stats.MemEnergy += l.memReadE
	l.stats.NoCEnergy += l.lineNoCE[hops]

	if isWrite && l.diff {
		l.mem.Store(a.Addr, a.Width, a.Value)
	}
	seg := l.sizeLine(base)
	l.makeRoom(bank, s, seg, -1, true)
	s.lines = append(s.lines, cline{
		base:     base,
		lru:      l.clock,
		core:     uint8(core),
		dirty:    isWrite,
		segBytes: seg,
	})
	s.used += seg
	l.stats.ResidentLines++
	l.stats.ResidentSegBytes += uint64(seg)
	l.stats.PerBank[bank].Occupancy[uint8(core)]++
	l.stats.BankEnergy += l.bankWriteE // the refill write into the bank

	lat := l.HitLatency(hops) + l.cfg.MemCycles
	l.stats.Latency += uint64(lat)
	l.stats.PerCore[core].Latency += uint64(lat)
	return lat
}

// Stats returns a snapshot of the accumulated statistics. The returned
// value owns copies of the per-core and per-bank slices, so further
// replay does not mutate it.
func (l *LLC) Stats() Stats {
	s := l.stats
	s.lineSize = l.cfg.LineSize
	s.PerCore = append([]CoreStats(nil), l.stats.PerCore...)
	s.PerBank = make([]BankStats, len(l.stats.PerBank))
	for b := range s.PerBank {
		s.PerBank[b] = l.stats.PerBank[b]
		s.PerBank[b].Occupancy = append([]uint64(nil), l.stats.PerBank[b].Occupancy...)
	}
	return s
}

// Replay runs a whole data trace (fetches are skipped) through the LLC.
func (l *LLC) Replay(t *trace.Trace) Stats {
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		l.Access(a)
	}
	return l.Stats()
}
