package resultstore

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Entry is the persisted form of one result: the content-address key and
// the opaque payload the caller wants back. Lines written with a "kind"
// field by older versions still decode; the field is ignored.
type Entry struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// Options tune a Store.
type Options struct {
	// Sync fsyncs every append; see OpenLog.
	Sync bool
}

// Stats is a point-in-time snapshot of store counters, shaped for
// lpmemd's /metrics endpoint.
type Stats struct {
	// Keys is the number of distinct keys held.
	Keys int `json:"keys"`
	// Hits/Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// FileReads counts Get hits that needed a re-scan of the file: keys
	// another handle appended since this one last looked.
	FileReads uint64 `json:"file_reads"`
	// Refreshes counts incremental scans that picked up appended lines
	// (from this replica or its peers).
	Refreshes uint64 `json:"refreshes"`
	// Appends counts Put calls that reached the log.
	Appends uint64 `json:"appends"`
	// SkippedLines counts unparseable lines dropped during scans (at most
	// the torn tail of a killed writer on a healthy file).
	SkippedLines uint64 `json:"skipped_lines"`
}

// Store is a content-addressed result map shared across replicas: a
// key -> payload map over an append-only Log. Get serves known keys from
// the map and unknown keys after one incremental refresh that merges
// whatever other replicas appended since the last look. An empty path
// makes the store memory-only (no sharing, used by tests).
type Store struct {
	log *Log // nil when memory-only

	mu       sync.Mutex
	payloads map[string]json.RawMessage

	hits, misses, fileReads, refreshes, appends, skipped uint64
}

// Open opens (creating if needed) the store at path, loading every intact
// line. An empty path yields a memory-only store.
func Open(path string, opts Options) (*Store, error) {
	s := &Store{payloads: make(map[string]json.RawMessage)}
	if path == "" {
		return s, nil
	}
	log, err := OpenLog(path, opts.Sync)
	if err != nil {
		return nil, err
	}
	s.log = log
	if err := s.Refresh(); err != nil {
		_ = log.Close()
		return nil, err
	}
	return s, nil
}

// Len returns the number of distinct keys held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.payloads)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Keys:         len(s.payloads),
		Hits:         s.hits,
		Misses:       s.misses,
		FileReads:    s.fileReads,
		Refreshes:    s.refreshes,
		Appends:      s.appends,
		SkippedLines: s.skipped,
	}
}

// Refresh merges lines appended since the last look — by this replica or
// any peer sharing the file — into the map.
func (s *Store) Refresh() error {
	if s.log == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshLocked()
}

func (s *Store) refreshLocked() error {
	grew := false
	err := s.log.Scan(func(line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			s.skipped++
			return nil
		}
		s.payloads[e.Key] = e.Payload
		grew = true
		return nil
	})
	if grew {
		s.refreshes++
	}
	return err
}

// Get returns the payload stored under key, if any replica has put it.
// A key unknown here triggers one incremental refresh to pick up peers'
// recent appends; that costs one fstat when nothing was appended.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.payloads[key]; ok {
		s.hits++
		return p, true
	}
	if s.log != nil && s.refreshLocked() == nil {
		if p, ok := s.payloads[key]; ok {
			s.hits++
			s.fileReads++
			return p, true
		}
	}
	s.misses++
	return nil, false
}

// Put stores payload under key: append to the shared log (fsync'd per
// Options) and insert into the map. Peers observe the entry at their
// next refresh. Re-putting a key is allowed — results are
// content-addressed, so a duplicate line carries the same value and
// merging by key keeps one.
func (s *Store) Put(key string, payload interface{}) error {
	if key == "" {
		return fmt.Errorf("resultstore: put with empty key")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resultstore: encode payload: %w", err)
	}
	line, err := json.Marshal(Entry{Key: key, Payload: raw})
	if err != nil {
		return fmt.Errorf("resultstore: encode entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		if err := s.log.Append(line); err != nil {
			return err
		}
		s.appends++
	}
	s.payloads[key] = raw
	return nil
}

// Close closes the backing log. The store then behaves as memory-only:
// the map stays readable and later Puts reach only memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}
