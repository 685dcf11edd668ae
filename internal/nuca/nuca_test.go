package nuca_test

import (
	"bytes"
	"reflect"
	"testing"

	"lpmem/internal/nuca"
	"lpmem/internal/trace"
)

// testTrace synthesises one interleaved multi-core trace.
func testTrace(t *testing.T, pattern trace.SharingPattern, cores, perCore int) *trace.Trace {
	t.Helper()
	tr, err := trace.SynthesizeMultiCore(trace.MultiCoreConfig{
		Seed:            9,
		Cores:           cores,
		AccessesPerCore: perCore,
		Pattern:         pattern,
	})
	if err != nil {
		t.Fatalf("SynthesizeMultiCore: %v", err)
	}
	return tr
}

// testConfig is a small shared LLC stressed enough to miss and evict.
func testConfig(cores int) nuca.Config {
	return nuca.Config{Cores: cores, Banks: 4, SetsPerBank: 16}
}

func TestConfigValidate(t *testing.T) {
	bad := []nuca.Config{
		{Cores: 0, Banks: 4, SetsPerBank: 16},
		{Cores: 257, Banks: 4, SetsPerBank: 16},
		{Cores: 4, Banks: 0, SetsPerBank: 16},
		{Cores: 4, Banks: 4, SetsPerBank: 0},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Mapping: "warp"},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Compression: "zip"},
	}
	for i, cfg := range bad {
		if _, err := nuca.New(cfg); err == nil {
			t.Errorf("case %d: bad config %+v accepted", i, cfg)
		}
	}
	if _, err := nuca.New(testConfig(4)); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestReplayAccounting(t *testing.T) {
	const cores = 4
	tr := testTrace(t, trace.SharingShared, cores, 3000)
	llc, err := nuca.New(testConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	st := llc.Replay(tr)

	dataAccesses := uint64(0)
	for _, a := range tr.Accesses {
		if a.Kind != trace.Fetch {
			dataAccesses++
		}
	}
	if st.Accesses != dataAccesses {
		t.Fatalf("accesses %d, want %d", st.Accesses, dataAccesses)
	}
	if st.Hits+st.Misses != st.Accesses {
		t.Fatalf("hits %d + misses %d != accesses %d", st.Hits, st.Misses, st.Accesses)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate replay: hits %d, misses %d", st.Hits, st.Misses)
	}

	var coreMiss uint64
	for c, m := range st.CoreMisses {
		if m == 0 {
			t.Fatalf("core %d recorded no misses", c)
		}
		coreMiss += m
	}
	if len(st.CoreMisses) != cores || coreMiss != st.Misses {
		t.Fatalf("per-core misses %v do not sum to the %d global misses", st.CoreMisses, st.Misses)
	}
	if st.TotalEnergy() <= 0 || st.Latency == 0 {
		t.Fatalf("missing cost accounting: energy %v, latency %d", st.TotalEnergy(), st.Latency)
	}
}

// TestStreamingMatchesMaterialised is the acceptance-criteria pin: a
// multi-core trace run through text→binary→text must come back
// byte-identical, and the decoded trace must replay to bit-identical
// per-core NUCA statistics.
func TestStreamingMatchesMaterialised(t *testing.T) {
	const cores = 4
	orig := testTrace(t, trace.SharingProducerConsumer, cores, 4000)

	// text → binary → text, CoreID preserved.
	var text1 bytes.Buffer
	if err := orig.WriteText(&text1); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadText(bytes.NewReader(text1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := parsed.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var text2 bytes.Buffer
	if err := decoded.WriteText(&text2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
		t.Fatal("text→binary→text round-trip not byte-identical")
	}

	llcA, err := nuca.New(testConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	stA := llcA.Replay(orig)
	llcB, err := nuca.New(testConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	stB := llcB.Replay(decoded)
	if !reflect.DeepEqual(stA, stB) {
		t.Fatalf("decoded and original replay stats diverge:\n%+v\nvs\n%+v", stA, stB)
	}
}

func TestCompressionEffectiveCapacity(t *testing.T) {
	const cores = 4
	tr := testTrace(t, trace.SharingPrivate, cores, 4000)
	ratios := map[nuca.CompressionPolicy]float64{}
	for _, comp := range nuca.CompressionPolicies() {
		cfg := testConfig(cores)
		cfg.Compression = comp
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := llc.Replay(tr)
		ratios[comp] = st.EffectiveCapacityRatio()
		if r := st.EffectiveCapacityRatio(); r < 1 {
			t.Fatalf("%s: effective capacity ratio %v < 1", comp, r)
		}
	}
	if ratios[nuca.CompNone] != 1 {
		t.Fatalf("uncompressed ratio %v, want exactly 1", ratios[nuca.CompNone])
	}
	if ratios[nuca.CompIdeal] <= 1 {
		t.Fatalf("ideal compression ratio %v, want > 1", ratios[nuca.CompIdeal])
	}
	if ratios[nuca.CompDiff] < 1 {
		t.Fatalf("differential ratio %v, want >= 1", ratios[nuca.CompDiff])
	}
}

func TestHitLatencyMonotoneInDistance(t *testing.T) {
	prev := -1
	for h := 0; h < 8; h++ {
		lat := nuca.HitLatency(h)
		if lat <= prev {
			t.Fatalf("HitLatency(%d)=%d not monotone (prev %d)", h, lat, prev)
		}
		prev = lat
	}
}

// TestDistanceMappingFavoursNearBanks: under the private pattern the
// first-touch policy must give a strictly lower mean hop count (visible
// as lower per-access latency) than static interleaving on the same
// trace, because each core's pages land on its nearest bank.
func TestDistanceMappingFavoursNearBanks(t *testing.T) {
	const cores = 4
	tr := testTrace(t, trace.SharingPrivate, cores, 4000)
	lat := map[nuca.MappingPolicy]float64{}
	for _, mp := range nuca.MappingPolicies() {
		cfg := testConfig(cores)
		cfg.Banks = 16
		cfg.SetsPerBank = 4
		cfg.Mapping = mp
		llc, err := nuca.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := llc.Replay(tr)
		// Normalise out the miss-rate difference: compare hit-path cost
		// via average latency, which the hop distance dominates here.
		lat[mp] = st.AvgLatency()
	}
	if lat[nuca.MapDistance] >= lat[nuca.MapStatic] {
		t.Fatalf("distance mapping average latency %.2f not below static %.2f",
			lat[nuca.MapDistance], lat[nuca.MapStatic])
	}
}

// oneSet is an LLC of a single set: one core, one bank, one set of
// nuca.Ways ways and nuca.TagFactor×nuca.Ways tags.
func oneSet(comp nuca.CompressionPolicy) nuca.Config {
	return nuca.Config{Cores: 1, Banks: 1, SetsPerBank: 1, Compression: comp}
}

// replay runs the accesses through a fresh LLC of cfg.
func replay(t *testing.T, cfg nuca.Config, accesses ...trace.Access) nuca.Stats {
	t.Helper()
	llc, err := nuca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(len(accesses))
	for _, a := range accesses {
		tr.Append(a)
	}
	return llc.Replay(tr)
}

func read(addr uint32) trace.Access { return trace.Access{Addr: addr, Kind: trace.Read, Width: 4} }

func write(addr, v uint32) trace.Access {
	return trace.Access{Addr: addr, Kind: trace.Write, Width: 4, Value: v}
}

// TestExpansionEviction: overwriting compressible lines with
// incompressible data must grow their footprint, count expansions, and
// evict a neighbour once the set's byte budget overflows.
func TestExpansionEviction(t *testing.T) {
	// Fill every tag of the set with all-zero lines, each one segment.
	var accesses []trace.Access
	for i := uint32(0); i < nuca.TagFactor*nuca.Ways; i++ {
		accesses = append(accesses, read(i*nuca.LineSize))
	}
	// Store wild word values into the first three lines, breaking their
	// value locality until each is stored raw: the third overflows the
	// Ways×LineSize byte budget.
	wild := []uint32{0xdeadbeef, 0x12345678, 0x0badf00d, 0xcafebabe, 0x87654321, 0xa5a5a5a5, 0x5a5a5a5a}
	for line := uint32(0); line < 3; line++ {
		for i, v := range wild {
			accesses = append(accesses, write(line*nuca.LineSize+uint32(4+4*i), v))
		}
	}
	st := replay(t, oneSet(nuca.CompDiff), accesses...)
	if st.Expansions == 0 {
		t.Fatal("incompressible overwrite recorded no expansion")
	}
	if st.ResidentLines != nuca.TagFactor*nuca.Ways-1 {
		t.Fatalf("resident lines %d, want %d: the overflowing expansion evicts one neighbour",
			st.ResidentLines, nuca.TagFactor*nuca.Ways-1)
	}
	if st.ResidentSegBytes > nuca.Ways*nuca.LineSize {
		t.Fatalf("resident %d B exceeds the set's %d B", st.ResidentSegBytes, nuca.Ways*nuca.LineSize)
	}
}

// TestWriteBackPersists: evicting a dirty line charges a main-memory
// write, and the written data outlives the eviction, so the line's
// next refill is sized by what was stored.
func TestWriteBackPersists(t *testing.T) {
	// One access to line 0, then enough other lines to evict it through
	// the tag limit, then line 0 again.
	run := func(first trace.Access) nuca.Stats {
		accesses := []trace.Access{first}
		for i := uint32(1); i <= nuca.TagFactor*nuca.Ways; i++ {
			accesses = append(accesses, read(i*nuca.LineSize))
		}
		return replay(t, oneSet(nuca.CompDiff), append(accesses, read(4))...)
	}
	dirty, clean := run(write(4, 0xdeadbeef)), run(read(4))
	if dirty.Misses != clean.Misses || dirty.Hits != 0 || clean.Hits != 0 {
		t.Fatalf("dirty %d misses / %d hits, clean %d / %d: want all misses alike",
			dirty.Misses, dirty.Hits, clean.Misses, clean.Hits)
	}
	if dirty.MemEnergy <= clean.MemEnergy {
		t.Fatalf("dirty eviction memory energy %v not above clean %v", dirty.MemEnergy, clean.MemEnergy)
	}
	if dirty.ResidentSegBytes <= clean.ResidentSegBytes {
		t.Fatalf("refill after write-back holds %d B, clean %d B: the stored word was lost",
			dirty.ResidentSegBytes, clean.ResidentSegBytes)
	}
}
