package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func storeRecord(i int) Record {
	p := Point{"i": IntValue(i)}
	return RecordFor("test", p, Metrics{EnergyPJ: float64(i), Latency: 1, Area: 2})
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
	if got.Metrics != want.Metrics || got.Adapter != "test" || got.Point["i"] != "3" {
		t.Fatalf("reloaded record mismatch: %+v", got)
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
	if err := s2.Put(storeRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(storeRecord(3)); err != nil {
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
}

// TestStoreTwoConcurrentWriters drives two independent Store handles on
// one file — the shape of two lpmemd replicas resuming the same sweep —
// and asserts the merge loses nothing and duplicates nothing: every
// record put by either writer is present exactly once after reload, and
// no line was torn by the interleaved appends.
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
	// two replicas evaluate the same pending points.
	const n = 200
	var wg sync.WaitGroup
	put := func(s *Store, start, stride int) {
		defer wg.Done()
		for i := start; i < n; i += stride {
			if err := s.Put(storeRecord(i)); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 80; i < 120; i++ { // shared band, written by both
			if err := s.Put(storeRecord(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go put(a, 0, 2)
	go put(b, 1, 2)
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
		if got.Metrics != want.Metrics {
			t.Fatalf("record %d corrupted: %+v", i, got)
		}
	}
	// Deduplication happens at load: the map holds each key once even
	// though the shared band was appended twice.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, ln := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if len(ln) > 0 {
			lines++
		}
	}
	if want := n + 2*40; lines != want {
		t.Fatalf("file holds %d lines, want %d whole appended lines", lines, want)
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
	if got.Metrics != storeRecord(1).Metrics {
		t.Fatalf("peer record corrupted: %+v", got)
	}
	// Refresh with nothing new is a no-op, not an error.
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
}
