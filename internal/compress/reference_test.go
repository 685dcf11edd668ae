package compress

import (
	"math/rand"
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// refLine is one line of the reference cache, with its bytes.
type refLine struct {
	valid, dirty bool
	tag          uint32
	lru          uint64
	data         []byte
}

// refCache is the data-holding cache MeasureTraffic replayed through
// before the cache became tag-only: every line holds its bytes, a refill
// copies them from a per-byte backing map, a store writes into the line
// (and into the backing when the cache writes through or around), and a
// write-back copies the line out. onLine observes every refilled and
// written-back line.
type refCache struct {
	cfg     cache.Config
	sets    [][]refLine
	backing map[uint32]byte
	clock   uint64
	stats   cache.Stats
	onLine  func(data []byte)
}

func newRefCache(cfg cache.Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([][]refLine, cfg.Sets), backing: make(map[uint32]byte)}
	for s := range r.sets {
		r.sets[s] = make([]refLine, cfg.Ways)
		for w := range r.sets[s] {
			r.sets[s][w].data = make([]byte, cfg.LineSize)
		}
	}
	return r
}

func (r *refCache) readLine(base uint32, dst []byte) {
	for i := range dst {
		dst[i] = r.backing[base+uint32(i)]
	}
}

func (r *refCache) writeLine(base uint32, src []byte) {
	for i, b := range src {
		r.backing[base+uint32(i)] = b
	}
}

// store writes the access's bytes into a line, dropping any past its end.
func (r *refCache) store(data []byte, addr uint32, width uint8, value uint32) {
	off := addr & uint32(r.cfg.LineSize-1)
	for i := uint32(0); i < uint32(width) && off+i < uint32(len(data)); i++ {
		data[off+i] = byte(value >> (8 * i))
	}
}

func (r *refCache) access(addr uint32, isWrite bool, width uint8, value uint32) {
	r.clock++
	r.stats.Accesses++
	lineNum := addr / uint32(r.cfg.LineSize)
	set := lineNum % uint32(r.cfg.Sets)
	tag := lineNum / uint32(r.cfg.Sets)
	base := lineNum * uint32(r.cfg.LineSize)
	ways := r.sets[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = r.clock
			r.stats.Hits++
			if isWrite {
				r.store(ways[w].data, addr, width, value)
				if r.cfg.WriteBack {
					ways[w].dirty = true
				} else {
					r.stats.WriteThroughs++
					r.writeLine(base, ways[w].data)
				}
			}
			return
		}
	}
	r.stats.Misses++
	if isWrite && !r.cfg.WriteAllocate {
		r.stats.WriteThroughs++
		line := make([]byte, r.cfg.LineSize)
		r.readLine(base, line)
		r.store(line, addr, width, value)
		r.writeLine(base, line)
		return
	}
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
	v := &ways[victim]
	if v.valid && v.dirty {
		r.writeBack(v, set)
	}
	r.stats.Refills++
	r.readLine(base, v.data)
	r.onLine(v.data)
	v.valid, v.dirty, v.tag, v.lru = true, false, tag, r.clock
	if isWrite {
		r.store(v.data, addr, width, value)
		if r.cfg.WriteBack {
			v.dirty = true
		} else {
			r.stats.WriteThroughs++
			r.writeLine(base, v.data)
		}
	}
}

func (r *refCache) writeBack(l *refLine, set uint32) {
	r.stats.WriteBacks++
	r.onLine(l.data)
	r.writeLine((l.tag*uint32(r.cfg.Sets)+set)*uint32(r.cfg.LineSize), l.data)
}

func (r *refCache) flush() {
	for s := range r.sets {
		for w := range r.sets[s] {
			if l := &r.sets[s][w]; l.valid && l.dirty {
				r.writeBack(l, uint32(s))
			}
			r.sets[s][w].valid = false
		}
	}
}

// refMeasureTraffic is MeasureTraffic over the data-holding reference
// cache: statistics before the final flush, traffic after it.
func refMeasureTraffic(tr *trace.Trace, cfg cache.Config, codec Codec) (Traffic, cache.Stats) {
	r := newRefCache(cfg)
	var t Traffic
	r.onLine = func(data []byte) {
		t.Lines++
		t.RawBytes += uint64(len(data))
		t.CompressedBytes += uint64(len(codec.Compress(data)))
	}
	for _, a := range tr.Accesses {
		if a.Kind != trace.Fetch {
			r.access(a.Addr, a.Kind == trace.Write, a.Width, a.Value)
		}
	}
	st := r.stats
	r.flush()
	return t, st
}

func checkAgainstReference(t *testing.T, name string, tr *trace.Trace, cfg cache.Config) {
	t.Helper()
	got, gotStats, err := MeasureTraffic(tr, cfg, Differential{})
	if err != nil {
		t.Fatalf("%s %+v: %v", name, cfg, err)
	}
	want, wantStats := refMeasureTraffic(tr, cfg, Differential{})
	if got != want || gotStats != wantStats {
		t.Fatalf("%s %+v:\n traffic %+v stats %+v\nreference %+v stats %+v", name, cfg, got, gotStats, want, wantStats)
	}
}

// referenceConfigs are E2's two platforms, a one-set cache of 16 B lines,
// a write-through cache without write-allocate, and one with 64 B lines.
var referenceConfigs = []cache.Config{
	{Sets: 128, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true},
	{Sets: 128, Ways: 2, LineSize: 32, WriteBack: true, WriteAllocate: true},
	{Sets: 1, Ways: 2, LineSize: 16, WriteBack: true, WriteAllocate: true},
	{Sets: 64, Ways: 2, LineSize: 32, WriteBack: false, WriteAllocate: false},
	{Sets: 32, Ways: 4, LineSize: 64, WriteBack: true, WriteAllocate: true},
}

// TestMeasureTrafficMatchesReferenceOnKernels: on every kernel's trace,
// reading crossing lines from one memory image gives the same traffic
// and statistics as the data-holding cache did.
func TestMeasureTrafficMatchesReferenceOnKernels(t *testing.T) {
	runs, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		for _, cfg := range referenceConfigs {
			checkAgainstReference(t, run.Name, run.Trace, cfg)
		}
	}
}

// randomAlignedAddr draws a width-aligned address near the top of the
// address space, near 0, on either side of a page boundary, or anywhere.
func randomAlignedAddr(r *rand.Rand, width uint8) uint32 {
	var a uint32
	switch r.Intn(4) {
	case 0:
		a = 0xFFFFFFFF - uint32(r.Intn(2048))
	case 1:
		a = uint32(r.Intn(2048))
	case 2:
		a = uint32(1+r.Intn(8))<<12 - 64 + uint32(r.Intn(128))
	default:
		a = r.Uint32()
	}
	return a &^ uint32(width-1)
}

// TestMeasureTrafficMatchesReferenceOnRandomTraces: random reads and
// writes of aligned 1-, 2- and 4-byte values, crowded around 2³², 0 and
// page edges, under every reference geometry.
func TestMeasureTrafficMatchesReferenceOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	widths := []uint8{1, 2, 4}
	for trial := 0; trial < 40; trial++ {
		tr := trace.New(600)
		for i := 0; i < 600; i++ {
			w := widths[r.Intn(len(widths))]
			a := trace.Access{Addr: randomAlignedAddr(r, w), Value: r.Uint32() >> (32 - 8*uint32(w)), Width: w, Kind: trace.Read}
			switch r.Intn(5) {
			case 0, 1:
				a.Kind = trace.Write
			case 2:
				a.Kind = trace.Fetch
			}
			tr.Append(a)
		}
		for _, cfg := range referenceConfigs {
			checkAgainstReference(t, "random", tr, cfg)
		}
	}
}
