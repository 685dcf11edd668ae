package sweep

import (
	"encoding/json"
	"fmt"
	"sync"

	"lpmem/internal/resultstore"
)

// Record is one persisted point evaluation, the form Put writes. Point
// coordinates are stored in their canonical text form so records survive
// axis-type refactors and stay human-greppable in the JSONL file.
type Record struct {
	// Key is the content address: adapter @ StoreVersion : FNV of the
	// canonical point (see Key).
	Key string `json:"key"`
	// Adapter names the substrate that produced the metrics.
	Adapter string `json:"adapter"`
	// Point maps axis name to the coordinate's canonical text form.
	Point map[string]string `json:"point"`
	// Metrics is the evaluated objective triple.
	Metrics Metrics `json:"metrics"`
}

// newRecord builds the persisted form of one evaluated point.
func newRecord(key, adapter string, p Point, m Metrics) Record {
	coords := make(map[string]string, len(p))
	for name, v := range p {
		coords[name] = v.String()
	}
	return Record{Key: key, Adapter: adapter, Point: coords, Metrics: m}
}

// storedRecord is what loading reads of a record line: a resume needs a
// point's metrics under its key and nothing else.
type storedRecord struct {
	Key     string  `json:"key"`
	Metrics Metrics `json:"metrics"`
}

// Store is the persistent result cache that makes sweeps incremental: an
// append-only JSON-lines file keyed by point content hash. Re-running a
// sweep against a warm store executes only the missing points; a sweep
// killed mid-flight resumes from whatever was flushed. A Store with an
// empty path is memory-only (used by the HTTP service and tests).
//
// The store holds each record's key and metrics only. Put writes whole
// Records; loading decodes each line's key and metrics and reads nothing
// else. A line loads when it is valid JSON with a non-empty key and
// metrics that decode. Its adapter and point are not read, so a line
// whose adapter or point has the wrong JSON type loads, where a loader
// that decoded the whole Record skipped it.
//
// The file layer is resultstore.Log, which makes the store safe for
// multiple concurrent writer processes: each Put appends its records as
// whole O_APPEND lines in one write, so replicas sharing a store file
// interleave records, never bytes, and Refresh merges what peers
// appended since the last look. Loading tolerates a torn final line —
// the footprint of a killed process — and, defensively, skips any other
// line that does not load rather than refusing the whole file: every
// intact record is still worth not recomputing.
type Store struct {
	mu      sync.Mutex
	recs    map[string]Metrics
	log     *resultstore.Log
	skipped int
}

// OpenStore loads (creating if needed) the JSONL store at path, or
// returns a memory-only store when path is empty.
func OpenStore(path string) (*Store, error) {
	s := &Store{recs: make(map[string]Metrics)}
	if path == "" {
		return s, nil
	}
	log, err := resultstore.OpenLog(path, false)
	if err != nil {
		return nil, fmt.Errorf("sweep: open store: %w", err)
	}
	s.log = log
	if err := s.refreshLocked(); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("sweep: read store: %w", err)
	}
	return s, nil
}

// Len returns the number of records held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Skipped reports how many lines that do not load the loads so far
// dropped (0 on a healthy file; at most the torn tail of a killed sweep).
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Get returns the metrics stored under key, if present.
func (s *Store) Get(key string) (Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.recs[key]
	return m, ok
}

// Refresh merges records appended to the backing file since the last
// load — the work of sibling replicas sharing the store. Memory-only
// stores no-op. The call is cheap when nothing new was appended (one
// fstat).
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	if err := s.refreshLocked(); err != nil {
		return fmt.Errorf("sweep: refresh store: %w", err)
	}
	return nil
}

// refreshLocked scans new complete lines into the record map.
func (s *Store) refreshLocked() error {
	return s.log.Scan(func(line []byte) error {
		var rec storedRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			s.skipped++
			return nil
		}
		s.recs[rec.Key] = rec.Metrics
		return nil
	})
}

// Put inserts (or overwrites) records and appends them to the backing
// file as whole lines in one write, immediately visible to peer
// processes. A killed process loses at most the records of the Put
// being written.
func (s *Store) Put(recs ...Record) error {
	for _, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("sweep: record with empty key")
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		s.recs[rec.Key] = rec.Metrics
	}
	if s.log == nil {
		return nil
	}
	lines := make([][]byte, len(recs))
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("sweep: encode record: %w", err)
		}
		lines[i] = line
	}
	if err := s.log.Append(lines...); err != nil {
		return fmt.Errorf("sweep: write store: %w", err)
	}
	return nil
}

// Close closes the backing file. The in-memory view stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	if err != nil {
		return fmt.Errorf("sweep: close store: %w", err)
	}
	return nil
}
