package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func mustGet(t *testing.T, s *Store, key string) payload {
	t.Helper()
	raw, ok := s.Get(key)
	if !ok {
		t.Fatalf("key %s missing", key)
	}
	var p payload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("payload for %s unparseable: %v", key, err)
	}
	return p
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i, S: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustGet(t, s, "k3"); got.N != 3 {
		t.Fatalf("k3 = %+v", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Older versions wrote a "kind" field; such lines stay readable.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"legacy","kind":"experiment","payload":{"n":11,"s":"old"}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle (a restarted or sibling replica) sees everything.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 11 {
		t.Fatalf("reloaded store has %d keys, want 11", s2.Len())
	}
	if got := mustGet(t, s2, "k7"); got.N != 7 {
		t.Fatalf("k7 = %+v", got)
	}
	if got := mustGet(t, s2, "legacy"); got.N != 11 || got.S != "old" {
		t.Fatalf("legacy = %+v", got)
	}
	if st := s2.Stats(); st.SkippedLines != 0 {
		t.Fatalf("healthy store skipped %d lines", st.SkippedLines)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, "a"); got.N != 1 {
		t.Fatalf("a = %+v", got)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("phantom key b")
	}
	if s.Path() != "" {
		t.Fatalf("memory-only path = %q", s.Path())
	}
}

func TestStoreCrossReplicaVisibility(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	a, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put("from-a", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	// b has never seen the key; Get must pick it up via auto-refresh.
	if got := mustGet(t, b, "from-a"); got.N != 1 {
		t.Fatalf("from-a via b = %+v", got)
	}
	if st := b.Stats(); st.Hits != 1 || st.FileReads != 1 {
		t.Fatalf("peer key not counted as a re-scan hit: %+v", st)
	}
	if err := b.Put("from-b", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, a, "from-b"); got.N != 2 {
		t.Fatalf("from-b via a = %+v", got)
	}
}

func TestStoreConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	const writers, per = 4, 50
	stores := make([]*Store, writers)
	for w := range stores {
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[w] = s
	}
	var wg sync.WaitGroup
	for w, s := range stores {
		wg.Add(1)
		go func(w int, s *Store) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Overlapping key ranges: same key gets the same payload
				// from every writer, the content-addressed contract.
				k := fmt.Sprintf("k%d", (w*per+i)%(writers*per/2))
				if err := s.Put(k, payload{N: (w*per + i) % (writers * per / 2)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, s := range stores {
		_ = s.Close()
	}

	merged, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if st := merged.Stats(); st.SkippedLines != 0 {
		t.Fatalf("concurrent appends tore %d lines", st.SkippedLines)
	}
	want := writers * per / 2
	if merged.Len() != want {
		t.Fatalf("merged store has %d keys, want %d", merged.Len(), want)
	}
	for i := 0; i < want; i++ {
		if got := mustGet(t, merged, fmt.Sprintf("k%d", i)); got.N != i {
			t.Fatalf("k%d = %+v", i, got)
		}
	}
}

func TestStoreToleratesAndRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("whole", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A killed writer leaves half a line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","payload":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("store with torn tail has %d keys, want 1", s2.Len())
	}
	// The next append must start a fresh line, burying the torn tail as
	// one skipped junk line rather than corrupting itself.
	if err := s2.Put("after", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("repaired store has %d keys, want 2", s3.Len())
	}
	if got := mustGet(t, s3, "after"); got.N != 2 {
		t.Fatalf("after = %+v", got)
	}
	if st := s3.Stats(); st.SkippedLines != 1 {
		t.Fatalf("skipped %d lines, want exactly the torn one", st.SkippedLines)
	}
}

func TestStoreRejectsEmptyKey(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("", payload{}); err == nil || !strings.Contains(err.Error(), "empty key") {
		t.Fatalf("empty key accepted: %v", err)
	}
}

func TestLogAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{}`)); err == nil {
		t.Fatal("append to closed log succeeded")
	}
}
