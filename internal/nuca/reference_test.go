package nuca

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lpmem/internal/compress"
	"lpmem/internal/energy"
	"lpmem/internal/noc"
	"lpmem/internal/trace"
)

// The reference's own copy of the micro-architecture, so a wrong
// constant, mesh or energy in the model shows as a mismatch rather than
// being shared by both sides.
const (
	refWays             = 4
	refLineSize         = 32
	refSegmentBytes     = 8
	refTagFactor        = 2
	refBankCycles       = 4
	refHopCycles        = 2
	refDecompressCycles = 2
	refMemCycles        = 100
	refMainMemBytes     = 8 << 20
)

// refLine is a resident line of the reference LLC, with its bytes.
type refLine struct {
	base     uint32
	lru      uint64
	dirty    bool
	segBytes int
	data     []byte
}

type refSet struct {
	lines []refLine
	used  int
}

// refLLC is the per-line-data LLC the model replayed through before it
// kept its bytes in one memory image and its first-touch pages in a page
// table: each resident line holds a copy of its bytes, a miss copies
// them from a per-byte backing map, a dirty eviction copies them back,
// and bank and set come from a first-touch map keyed by page number and
// int division. It lays out its own mesh and prices latency and energy
// itself.
type refLLC struct {
	cfg     Config
	mesh    noc.Mesh
	hops    [][]int // hops[core][bank]
	clock   uint64
	stats   Stats
	sets    [][]refSet
	backing map[uint32]byte
	pageMap map[uint32]int // MapDistance: page number → bank

	memReadE, memWriteE   energy.PJ
	bankReadE, bankWriteE energy.PJ
}

func newRefLLC(cfg Config) *refLLC {
	// The near-square mesh: ⌈√Banks⌉ columns, as many rows as the banks
	// fill, with the default mesh's links and energies.
	w := int(math.Ceil(math.Sqrt(float64(cfg.Banks))))
	mesh := noc.DefaultMesh()
	mesh.W, mesh.H = w, int(math.Ceil(float64(cfg.Banks)/float64(w)))
	r := &refLLC{
		cfg:     cfg,
		mesh:    mesh,
		hops:    make([][]int, cfg.Cores),
		sets:    make([][]refSet, cfg.Banks),
		backing: make(map[uint32]byte),
		pageMap: make(map[uint32]int),
	}
	r.stats.CoreMisses = make([]uint64, cfg.Cores)
	// Cores and banks spread evenly over the tiles.
	tiles := mesh.W * mesh.H
	for c := range r.hops {
		r.hops[c] = make([]int, cfg.Banks)
		for b := range r.hops[c] {
			r.hops[c][b] = mesh.Dist(c*tiles/cfg.Cores, b*tiles/cfg.Banks)
		}
	}
	for b := range r.sets {
		r.sets[b] = make([]refSet, cfg.SetsPerBank)
	}
	model := energy.DefaultMemoryModel()
	bankBytes := uint32(cfg.SetsPerBank * refWays * refLineSize)
	r.memReadE = model.ReadEnergy(refMainMemBytes)
	r.memWriteE = model.WriteEnergy(refMainMemBytes)
	r.bankReadE = model.ReadEnergy(bankBytes) + model.SelectEnergy(cfg.Banks)
	r.bankWriteE = model.WriteEnergy(bankBytes) + model.SelectEnergy(cfg.Banks)
	return r
}

// nocEnergy prices bits crossing h hops. The conversion rounds the
// product, as the model's per-hop tables do, so no platform fuses it
// into the sum it is added to.
func (r *refLLC) nocEnergy(bits, h int) energy.PJ {
	return energy.PJ(energy.PJ(bits) * r.mesh.BitEnergy(h))
}

// bankFor maps a line base address touched by core to a bank: on first
// touch of its page, the bank nearest the core's tile, ties to the
// lower index.
func (r *refLLC) bankFor(base uint32, core int) int {
	cfg := r.cfg
	if cfg.Mapping == MapStatic {
		return int(base/refLineSize) % cfg.Banks
	}
	page := base / pageBytes
	if b, ok := r.pageMap[page]; ok {
		return b
	}
	best := 0
	for b := 0; b < cfg.Banks; b++ {
		if r.hops[core][b] < r.hops[core][best] {
			best = b
		}
	}
	r.pageMap[page] = best
	return best
}

// setFor maps a line base address to a set within its bank.
func (r *refLLC) setFor(base uint32) int {
	cfg := r.cfg
	lineNum := base / refLineSize
	if cfg.Mapping == MapStatic {
		return int(lineNum/uint32(cfg.Banks)) % cfg.SetsPerBank
	}
	return int(lineNum) % cfg.SetsPerBank
}

func (r *refLLC) sizeLine(data []byte) int {
	csize := refLineSize
	switch r.cfg.Compression {
	case CompDiff:
		csize = min(compress.Differential{}.Size(data), refLineSize)
	case CompIdeal:
		csize = refLineSize / 2
	}
	return (csize + refSegmentBytes - 1) / refSegmentBytes * refSegmentBytes
}

func (r *refLLC) evictLRU(s *refSet, keep int) bool {
	victim := -1
	for i := range s.lines {
		if i != keep && (victim < 0 || s.lines[i].lru < s.lines[victim].lru) {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	v := &s.lines[victim]
	st := &r.stats
	if v.dirty {
		for i, b := range v.data {
			r.backing[v.base+uint32(i)] = b
		}
		st.MemEnergy += r.memWriteE
	}
	s.used -= v.segBytes
	st.ResidentLines--
	st.ResidentSegBytes -= uint64(v.segBytes)
	s.lines[victim] = s.lines[len(s.lines)-1]
	s.lines = s.lines[:len(s.lines)-1]
	return true
}

func (r *refLLC) makeRoom(s *refSet, need, keep int, addTag bool) {
	for s.used+need > refWays*refLineSize {
		if !r.evictLRU(s, keep) {
			return
		}
	}
	for addTag && len(s.lines) >= refTagFactor*refWays {
		if !r.evictLRU(s, keep) {
			return
		}
	}
}

// store writes the access's bytes into a line, dropping any past its end.
func store(data []byte, off uint32, width uint8, value uint32) {
	for i := uint32(0); i < uint32(width) && off+i < uint32(len(data)); i++ {
		data[off+i] = byte(value >> (8 * i))
	}
}

func (r *refLLC) access(a trace.Access) {
	cfg, st := r.cfg, &r.stats
	r.clock++
	core := min(int(a.Core), cfg.Cores-1)
	base := a.Addr / refLineSize * refLineSize
	bank := r.bankFor(base, core)
	s := &r.sets[bank][r.setFor(base)]
	hops := r.hops[core][bank]
	hitLat := refBankCycles + 2*hops*refHopCycles
	isWrite := a.Kind == trace.Write
	st.Accesses++
	if isWrite {
		st.BankEnergy += r.bankWriteE
	} else {
		st.BankEnergy += r.bankReadE
	}
	st.NoCEnergy += r.nocEnergy(32, hops)
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.base != base {
			continue
		}
		ln.lru = r.clock
		lat := hitLat
		if ln.segBytes < refLineSize {
			lat += refDecompressCycles
		}
		if isWrite {
			store(ln.data, a.Addr-base, a.Width, a.Value)
			ln.dirty = true
			if newSeg := r.sizeLine(ln.data); newSeg != ln.segBytes {
				if newSeg > ln.segBytes {
					st.Expansions++
				}
				s.used += newSeg - ln.segBytes
				st.ResidentSegBytes += uint64(newSeg) - uint64(ln.segBytes)
				ln.segBytes = newSeg
				r.makeRoom(s, 0, i, false)
			}
		}
		st.Hits++
		st.Latency += uint64(lat)
		return
	}
	st.Misses++
	st.CoreMisses[core]++
	st.MemEnergy += r.memReadE
	st.NoCEnergy += r.nocEnergy(8*refLineSize, hops)
	data := make([]byte, refLineSize)
	for i := range data {
		data[i] = r.backing[base+uint32(i)]
	}
	if isWrite {
		store(data, a.Addr-base, a.Width, a.Value)
	}
	seg := r.sizeLine(data)
	r.makeRoom(s, seg, -1, true)
	s.lines = append(s.lines, refLine{base: base, lru: r.clock, dirty: isWrite, segBytes: seg, data: data})
	s.used += seg
	st.ResidentLines++
	st.ResidentSegBytes += uint64(seg)
	st.BankEnergy += r.bankWriteE
	st.Latency += uint64(hitLat + refMemCycles)
}

// checkAgainstReference replays tr through the LLC and the reference
// and requires every statistic to be equal.
func checkAgainstReference(t *testing.T, name string, tr *trace.Trace, cfg Config) {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := l.Replay(tr)
	ref := newRefLLC(cfg)
	for _, a := range tr.Accesses {
		if a.Kind != trace.Fetch {
			ref.access(a)
		}
	}
	if want := ref.stats; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s/%s: stats differ from the reference\n got %+v\nwant %+v", name, cfg.Mapping, cfg.Compression, got, want)
	}
}

// TestReplayMatchesReferenceOnExperimentTraces: the traces and
// geometries of E24 (2, 4 and 8 cores), E25 (16 banks) and E26 (half the
// sets), under every compression and mapping policy.
func TestReplayMatchesReferenceOnExperimentTraces(t *testing.T) {
	type run struct {
		seed        int64
		cores       int
		banks, sets int
	}
	var runs []run
	for _, cores := range []int{2, 4, 8} {
		runs = append(runs, run{24, cores, 8, 32})
	}
	runs = append(runs, run{25, 4, 16, 16}, run{26, 4, 8, 16})
	for _, rn := range runs {
		for _, pattern := range trace.SharingPatterns() {
			tr, err := trace.SynthesizeMultiCore(trace.MultiCoreConfig{
				Seed: rn.seed, Cores: rn.cores, AccessesPerCore: 6000, Pattern: pattern,
				PrivateBytes: 16 << 10, SharedBytes: 32 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("E%d/%s/%d cores", rn.seed, pattern, rn.cores)
			for _, comp := range CompressionPolicies() {
				for _, mp := range MappingPolicies() {
					checkAgainstReference(t, name, tr, Config{
						Cores: rn.cores, Banks: rn.banks, SetsPerBank: rn.sets,
						Mapping: mp, Compression: comp,
					})
				}
			}
		}
	}
}

// TestReplayMatchesReferenceOnRandomTraces: random reads and writes of
// aligned 1-, 2- and 4-byte values from four cores, over a span small
// enough to hit, expand and evict, on a power-of-two geometry, on bank
// and set counts that are not, and on one bank, where the mesh is one
// tile and every core is 0 hops from the bank. The
// last trial's pages lie at the bottom, middle and top of the address
// space, in page-table directory slots 0, 511, 512 and 1023.
func TestReplayMatchesReferenceOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	widths := []uint8{1, 2, 4}
	geometries := []struct{ banks, sets int }{{4, 4}, {3, 5}, {6, 12}, {1, 8}}
	const trials = 13
	for trial := 0; trial < trials; trial++ {
		tr := trace.New(3000)
		span := uint32(2048) << r.Intn(4)
		for i := 0; i < 3000; i++ {
			w := widths[r.Intn(len(widths))]
			v := r.Uint32() >> (32 - 8*uint32(w))
			if r.Intn(2) == 0 {
				v &= 0xF // small values compress, so stores change line sizes
			}
			addr := r.Uint32() % span
			if trial == trials-1 {
				regions := []uint32{0x00000000, 0x7FFFE000, 0xFFFFC000}
				addr = regions[r.Intn(len(regions))] + r.Uint32()%0x4000
			}
			a := trace.Access{Addr: addr &^ uint32(w-1), Value: v, Width: w, Kind: trace.Read, Core: uint8(r.Intn(4))}
			if r.Intn(2) == 0 {
				a.Kind = trace.Write
			}
			tr.Append(a)
		}
		for _, g := range geometries {
			for _, comp := range CompressionPolicies() {
				for _, mp := range MappingPolicies() {
					checkAgainstReference(t, fmt.Sprintf("trial %d banks %d sets %d", trial, g.banks, g.sets), tr, Config{
						Cores: 4, Banks: g.banks, SetsPerBank: g.sets,
						Mapping: mp, Compression: comp,
					})
				}
			}
		}
	}
}

// TestReplayAllocationsIndependentOfSets: New plus Replay of one trace
// allocates no more objects at 1024 sets per bank than at 4, so rosters
// come from one backing rather than one allocation per set touched.
func TestReplayAllocationsIndependentOfSets(t *testing.T) {
	tr, err := trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed: 3, Cores: 4, AccessesPerCore: 4000, Pattern: trace.SharingShared,
		PrivateBytes: 16 << 10, SharedBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var allocs []float64
	for _, sets := range []int{4, 64, 1024} {
		cfg := Config{
			Cores: 4, Banks: 4, SetsPerBank: sets,
			Mapping: MapDistance, Compression: CompDiff,
		}
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l.Replay(tr)
		}))
	}
	// A collection that the larger backings trigger can cost the
	// runtime an object of its own, so allow two; a roster allocated per
	// set touched would add thousands at 1024 sets.
	if allocs[1] > allocs[0]+2 || allocs[2] > allocs[0]+2 {
		t.Fatalf("New+Replay allocations at 4, 64 and 1024 sets per bank: %v, want no growth", allocs)
	}
}
