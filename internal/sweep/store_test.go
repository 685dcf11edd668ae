package sweep

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func storeRecord(i int) Record {
	p := Point{"i": IntValue(i)}
	return newRecord(Key("test", StoreVersion, p.Canonical()), "test", p, Metrics{EnergyPJ: float64(i), Latency: 1, Area: 2})
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(storeRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("reloaded store has %d records, want 5", s2.Len())
	}
	if s2.Skipped() != 0 {
		t.Fatalf("healthy store skipped %d lines", s2.Skipped())
	}
	want := storeRecord(3)
	got, ok := s2.Get(want.Key)
	if !ok {
		t.Fatalf("record %s missing after reload", want.Key)
	}
	if got != want.Metrics {
		t.Fatalf("reloaded metrics %+v, want %+v", got, want.Metrics)
	}
}

func TestStoreToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(storeRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-write: truncate the last line in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimRight(string(data), "\n")
	cut := strings.LastIndexByte(trimmed, '\n') + 1 + 10 // 10 bytes into the last record
	if err := os.WriteFile(path, []byte(trimmed[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatalf("torn store refused to load: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("torn store has %d records, want the 2 intact ones", s2.Len())
	}
	// The torn tail is not yet counted as skipped: under the multi-writer
	// contract an incomplete final line could be a peer mid-append, so it
	// stays pending until an append buries it.
	if s2.Skipped() != 0 {
		t.Fatalf("torn store skipped %d lines at load, want 0 (tail pending)", s2.Skipped())
	}

	// Appending after a torn tail must start on a fresh line, and the
	// re-put of the torn record must survive the next reload.
	if err := s2.Put(storeRecord(2), storeRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	// The torn half-line stays in the file as one permanently skipped
	// line; every intact record (including the re-put of the torn one)
	// survives.
	if s3.Len() != 4 || s3.Skipped() != 1 {
		t.Fatalf("recovered store: len=%d skipped=%d, want 4/1", s3.Len(), s3.Skipped())
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(storeRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(storeRecord(0).Key); !ok {
		t.Fatal("memory-only store lost a record")
	}
	if s.log != nil {
		t.Fatal("memory-only store opened a log file")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRejectsEmptyKey(t *testing.T) {
	s, _ := OpenStore("")
	if err := s.Put(Record{}); err == nil {
		t.Fatal("Put accepted a record with no key")
	}
	// One keyless record rejects its whole batch.
	if err := s.Put(storeRecord(1), Record{}); err == nil || s.Len() != 0 {
		t.Fatalf("Put of a batch with a keyless record: err %v, %d records held", err, s.Len())
	}
}

// TestStoreTwoConcurrentWriters drives two independent Store handles on
// one file — the shape of two lpmemd replicas resuming the same sweep —
// each putting multi-record batches as the executor does, and asserts
// the merge loses nothing and duplicates nothing: every line decodes,
// every record put by either writer is present after reload, and the
// file holds each appended record exactly as often as it was put.
func TestStoreTwoConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}

	// Writer A takes the evens, writer B the odds, and both race over a
	// shared middle band — the overlap a real resume race produces when
	// two replicas evaluate the same pending points. The writers use
	// different batch widths so their batch boundaries do not line up.
	const n = 200
	var wg sync.WaitGroup
	put := func(s *Store, start, stride, width int) {
		defer wg.Done()
		var ids []int
		for i := start; i < n; i += stride {
			ids = append(ids, i)
		}
		for i := 80; i < 120; i++ { // shared band, written by both
			ids = append(ids, i)
		}
		for len(ids) > 0 {
			w := min(width, len(ids))
			recs := make([]Record, w)
			for k, i := range ids[:w] {
				recs[k] = storeRecord(i)
			}
			ids = ids[w:]
			if err := s.Put(recs...); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go put(a, 0, 2, 7)
	go put(b, 1, 2, 5)
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	merged, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if merged.Skipped() != 0 {
		t.Fatalf("concurrent appends tore %d lines", merged.Skipped())
	}
	if merged.Len() != n {
		t.Fatalf("merged store has %d records, want %d", merged.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := storeRecord(i)
		got, ok := merged.Get(want.Key)
		if !ok {
			t.Fatalf("record %d lost in merge", i)
		}
		if got != want.Metrics {
			t.Fatalf("record %d corrupted: %+v", i, got)
		}
	}
	// Deduplication happens at load: the map holds each key once even
	// though the shared band was appended by both writers. The file holds
	// every appended record as one whole line, as often as it was put.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if want := n + 2*40; len(lines) != want {
		t.Fatalf("file holds %d lines, want %d whole appended lines", len(lines), want)
	}
	count := map[string]int{}
	for _, ln := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %q does not decode: %v", ln, err)
		}
		count[rec.Key]++
	}
	for i := 0; i < n; i++ {
		want := 1
		if i >= 80 && i < 120 {
			want = 3 // once by its own writer, then once more by each
		}
		if got := count[storeRecord(i).Key]; got != want {
			t.Fatalf("record %d appears %d times, want %d", i, got, want)
		}
	}
}

// TestStoreRefreshSeesPeerAppends covers the cross-replica read path the
// executor uses: records a peer handle appends become visible to an
// already-open store after Refresh, without reopening.
func TestStoreRefreshSeesPeerAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put(storeRecord(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(storeRecord(1).Key); ok {
		t.Fatal("peer record visible before Refresh")
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(storeRecord(1).Key)
	if !ok {
		t.Fatal("peer record invisible after Refresh")
	}
	if got != storeRecord(1).Metrics {
		t.Fatalf("peer record corrupted: %+v", got)
	}
	// Refresh with nothing new is a no-op, not an error.
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// formatRecords are the records testdata/store_format.jsonl holds, in
// file order: three bus records, then three memtech records. Their
// metrics cover the encoder's number forms: exponents both ways, the
// extremes of float64 and shortest round-trip digits. The keys use the
// version literal the file was written under, so a StoreVersion bump
// leaves the fixture valid.
func formatRecords() []Record {
	rec := func(adapter string, p Point, m Metrics) Record {
		return newRecord(Key(adapter, "sweep-1", p.Canonical()), adapter, p, m)
	}
	return []Record{
		rec("bus", Point{"scheme": EnumValue("binary"), "stream": EnumValue("seq")},
			Metrics{EnergyPJ: 1234.5678901234567, Latency: 0.1, Area: 3}),
		rec("bus", Point{"scheme": EnumValue("gray"), "stream": EnumValue("random")},
			Metrics{EnergyPJ: 1e21, Latency: 1e-7, Area: math.SmallestNonzeroFloat64}),
		rec("bus", Point{"scheme": EnumValue("shielded"), "stream": EnumValue("samples")},
			Metrics{EnergyPJ: math.MaxFloat64, Latency: 0, Area: 2.5}),
		rec("memtech", Point{"tech": EnumValue("180"), "cell": EnumValue("hp"), "gating": EnumValue("off"), "banks": IntValue(1)},
			Metrics{EnergyPJ: 0.30000000000000004, Latency: 123456789012345680000, Area: 1e20}),
		rec("memtech", Point{"tech": EnumValue("65"), "cell": EnumValue("lstp"), "gating": EnumValue("full"), "banks": IntValue(8)},
			Metrics{EnergyPJ: 7e-300, Latency: 42, Area: 65536}),
		rec("memtech", Point{"tech": EnumValue("90"), "cell": EnumValue("lop"), "gating": EnumValue("array"), "banks": IntValue(3)},
			Metrics{EnergyPJ: 3.3333333333333335, Latency: 2.220446049250313e-16, Area: 98765.4321}),
	}
}

// sameMetricBits compares metrics bit for bit.
func sameMetricBits(a, b Metrics) bool {
	return math.Float64bits(a.EnergyPJ) == math.Float64bits(b.EnergyPJ) &&
		math.Float64bits(a.Latency) == math.Float64bits(b.Latency) &&
		math.Float64bits(a.Area) == math.Float64bits(b.Area)
}

// TestStoreFormatFixture pins the on-disk format in both directions
// against testdata/store_format.jsonl, a file an earlier Put wrote: the
// bus records, a garbage line, the memtech records and a torn final
// line. Loading it yields exactly formatRecords with bit-identical
// metrics and one skipped line, and Put of formatRecords writes the
// file's record lines byte for byte.
func TestStoreFormatFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "store_format.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(fixture), "\n")
	if len(lines) != 8 || strings.HasSuffix(lines[7], "\n") {
		t.Fatalf("fixture has %d lines, want 7 whole lines and a torn tail", len(lines))
	}
	recordLines := lines[0] + lines[1] + lines[2] + lines[4] + lines[5] + lines[6]
	recs := formatRecords()

	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, skipped int) {
		t.Helper()
		if s.Len() != len(recs) || s.Skipped() != skipped {
			t.Fatalf("store holds %d records and skipped %d lines, want %d and %d", s.Len(), s.Skipped(), len(recs), skipped)
		}
		for _, r := range recs {
			got, ok := s.Get(r.Key)
			if !ok || !sameMetricBits(got, r.Metrics) {
				t.Fatalf("%s: got %+v (present %v), want %+v", r.Key, got, ok, r.Metrics)
			}
		}
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	check(s, 1)
	// Appending to the fixture buries its torn tail and writes the
	// records' lines after it.
	if err := s.Put(recs...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(fixture) + "\n" + recordLines; string(got) != want {
		t.Fatalf("appending to the fixture wrote\n%s\nwant\n%s", got, want)
	}
	s, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	check(s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Put into a fresh file writes exactly the fixture's record lines.
	fresh := filepath.Join(dir, "fresh.jsonl")
	if s, err = OpenStore(fresh); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(recs[:3]...); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(recs[3:]...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(fresh); err != nil {
		t.Fatal(err)
	}
	if string(got) != recordLines {
		t.Fatalf("Put wrote\n%s\nwant the fixture's record lines\n%s", got, recordLines)
	}
}

// TestStoreLoadRule pins which lines load: valid JSON with a non-empty
// key and metrics that decode. A record's adapter and point are not
// read, so a line with a malformed point loads.
func TestStoreLoadRule(t *testing.T) {
	cases := []struct {
		line string
		key  string // the key the line loads under; "" when skipped
	}{
		{`garbage`, ""},
		{`[1,2,3]`, ""},
		{`null`, ""},
		{`{"key":"truncated","metrics":{"energy_pj":1}`, ""},
		{`{"adapter":"bus","metrics":{"energy_pj":1,"latency":2,"area":3}}`, ""},
		{`{"key":"","metrics":{"energy_pj":1,"latency":2,"area":3}}`, ""},
		{`{"key":7,"metrics":{"energy_pj":1,"latency":2,"area":3}}`, ""},
		{`{"key":"metrics-string","metrics":"fast"}`, ""},
		{`{"key":"energy-string","metrics":{"energy_pj":"high","latency":2,"area":3}}`, ""},
		{`{"key":"point-string","adapter":"bus","point":"scheme=gray","metrics":{"energy_pj":1,"latency":2,"area":3}}`, "point-string"},
		{`{"key":"point-ints","adapter":7,"point":{"banks":1},"metrics":{"energy_pj":4,"latency":5,"area":6}}`, "point-ints"},
	}
	var b strings.Builder
	loads := 0
	for _, c := range cases {
		b.WriteString(c.line + "\n")
		if c.key != "" {
			loads++
		}
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != loads || s.Skipped() != len(cases)-loads {
		t.Fatalf("loaded %d and skipped %d lines, want %d and %d", s.Len(), s.Skipped(), loads, len(cases)-loads)
	}
	for _, c := range cases {
		if c.key == "" {
			continue
		}
		if _, ok := s.Get(c.key); !ok {
			t.Errorf("line %s did not load", c.line)
		}
	}
	if m, _ := s.Get("point-ints"); m != (Metrics{EnergyPJ: 4, Latency: 5, Area: 6}) {
		t.Errorf("point-ints loaded metrics %+v", m)
	}
}
