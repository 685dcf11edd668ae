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
	return nuca.Config{
		Cores:       cores,
		Banks:       4,
		SetsPerBank: 16,
		Ways:        4,
		LineSize:    32,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []nuca.Config{
		{Cores: 0, Banks: 4, SetsPerBank: 16, Ways: 4, LineSize: 32},
		{Cores: 4, Banks: 0, SetsPerBank: 16, Ways: 4, LineSize: 32},
		{Cores: 4, Banks: 4, SetsPerBank: 0, Ways: 4, LineSize: 32},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Ways: 0, LineSize: 32},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Ways: 4, LineSize: 48},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Ways: 4, LineSize: 32, SegmentBytes: 24},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Ways: 4, LineSize: 32, Mapping: "warp"},
		{Cores: 4, Banks: 4, SetsPerBank: 16, Ways: 4, LineSize: 32, Compression: "zip"},
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

	var coreAcc, coreHits, coreMiss uint64
	for _, cs := range st.PerCore {
		coreAcc += cs.Accesses
		coreHits += cs.Hits
		coreMiss += cs.Misses
		if cs.Hits+cs.Misses != cs.Accesses {
			t.Fatalf("per-core accounting broken: %+v", cs)
		}
	}
	if coreAcc != st.Accesses || coreHits != st.Hits || coreMiss != st.Misses {
		t.Fatal("per-core totals do not sum to global totals")
	}

	var bankAcc, bankHits, bankMiss, occ uint64
	for _, bs := range st.PerBank {
		bankAcc += bs.Accesses
		bankHits += bs.Hits
		bankMiss += bs.Misses
		for _, o := range bs.Occupancy {
			occ += o
		}
	}
	if bankAcc != st.Accesses || bankHits != st.Hits || bankMiss != st.Misses {
		t.Fatal("per-bank totals do not sum to global totals")
	}
	if occ != st.ResidentLines {
		t.Fatalf("occupancy %d != resident lines %d", occ, st.ResidentLines)
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
	llc, err := nuca.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for h := 0; h < 8; h++ {
		lat := llc.HitLatency(h)
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

// TestExpansionEviction: overwriting a compressible line with
// incompressible data must grow its footprint and count an expansion.
func TestExpansionEviction(t *testing.T) {
	cfg := nuca.Config{
		Cores: 1, Banks: 1, SetsPerBank: 1, Ways: 2, LineSize: 32,
		Compression: nuca.CompDiff,
	}
	llc, err := nuca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Touch a line (refills as all-zero: maximally compressible), then
	// store wild word values into it to break the value locality.
	llc.Access(trace.Access{Addr: 0, Kind: trace.Read, Width: 4})
	vals := []uint32{0xdeadbeef, 0x12345678, 0x0badf00d, 0xcafebabe, 0x87654321, 0xa5a5a5a5, 0x5a5a5a5a}
	for i, v := range vals {
		llc.Access(trace.Access{Addr: uint32(4 + 4*i), Kind: trace.Write, Width: 4, Value: v})
	}
	st := llc.Stats()
	if st.Expansions == 0 {
		t.Fatal("incompressible overwrite recorded no expansion")
	}
}

// TestWriteBackPersists: a dirty evicted line must reach the backing
// store so a later refill sees the written data (hit via value check is
// indirect; we check WriteBacks fired and re-access misses then hits).
func TestWriteBackPersists(t *testing.T) {
	cfg := nuca.Config{Cores: 1, Banks: 1, SetsPerBank: 1, Ways: 1, LineSize: 32, TagFactor: 1}
	llc, err := nuca.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	llc.Access(trace.Access{Addr: 0x00, Kind: trace.Write, Width: 4, Value: 7})
	llc.Access(trace.Access{Addr: 0x40, Kind: trace.Read, Width: 4}) // evicts the dirty line
	st := llc.Stats()
	if st.WriteBacks != 1 {
		t.Fatalf("write-backs %d, want 1", st.WriteBacks)
	}
	if st.ResidentLines != 1 {
		t.Fatalf("resident lines %d, want 1", st.ResidentLines)
	}
}
