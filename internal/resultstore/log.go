// Package resultstore is the content-addressed persistent result store
// behind the horizontally scaled lpmemd serving stack. It generalises the
// hash/resume design the sweep JSONL store pioneered: results are
// append-only JSON lines keyed by a request content hash, so any number
// of replica processes can share one store file — writers append whole
// lines with O_APPEND (each line lands atomically on local filesystems),
// readers tail the file incrementally and merge by key, and a torn final
// line (the footprint of a killed replica) is tolerated, not fatal.
//
// The package has two layers:
//
//   - Log: the multi-writer append-only line file. It owns the read
//     frontier, fsync policy, torn-tail repair and the incremental Scan
//     used to pick up lines other replicas appended.
//   - Store: a key -> payload map over a Log, filled by scanning. A Get
//     of an unknown key re-scans once, so keys a peer appended since the
//     last look are found without coordination.
//
// lpmemd's store is the second tier behind the experiment engine's
// memory cache: the engine consults it only after its in-flight dedup,
// so a replica reads and appends each key at most once. internal/sweep's
// Store is a typed map of the same shape over the same Log.
package resultstore

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Log is an append-only line file safe for concurrent writers across
// processes. Every Append writes one complete line (payload + '\n') in a
// single write(2) call on an O_APPEND descriptor; POSIX serialises such
// appends, so concurrent replicas interleave whole lines rather than
// bytes. Scan consumes complete lines incrementally — each call picks up
// only what was appended (by anyone) since the previous call.
type Log struct {
	path string
	sync bool

	mu sync.Mutex
	f  *os.File // O_APPEND write handle
	rf *os.File // independent read handle for Scan
	// off is the read frontier: bytes of complete lines consumed by Scan.
	off int64
	// needSep is set when the file ends without '\n' (a writer died
	// mid-line); the next Append starts a fresh line first.
	needSep bool
}

// OpenLog opens (creating if needed) the line log at path. When sync is
// true every Append is fsync'd before returning — the index a replica
// publishes to its peers is durable, not just buffered.
func OpenLog(path string, sync bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: open log: %w", err)
	}
	rf, err := os.Open(path)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("resultstore: open log for read: %w", err)
	}
	l := &Log{path: path, sync: sync, f: f, rf: rf}
	if st, err := rf.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := rf.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			l.needSep = true
		}
	}
	return l, nil
}

// Path returns the backing file path.
func (l *Log) Path() string { return l.path }

// Append writes line (which must not contain '\n') plus a newline as one
// write call, then fsyncs when the log is sync'd. Concurrent appends
// from other Log handles — including other processes — are safe.
func (l *Log) Append(line []byte) error {
	buf := make([]byte, 0, len(line)+2)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("resultstore: append to closed log")
	}
	if l.needSep {
		// Repair a torn tail left by a killed writer: our line must not
		// glue onto the partial one. The separator rides in the same
		// write so the line still lands atomically.
		buf = append(buf, '\n')
		l.needSep = false
	}
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("resultstore: append: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("resultstore: fsync: %w", err)
		}
	}
	return nil
}

// Scan reads every complete line appended since the previous Scan (by
// this handle or any other writer) and hands each to fn. A final partial
// line — some writer is mid-append or died — is left for a future Scan.
// fn errors abort the scan.
func (l *Log) Scan(fn func(line []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rf == nil {
		return fmt.Errorf("resultstore: scan of closed log")
	}
	st, err := l.rf.Stat()
	if err != nil {
		return fmt.Errorf("resultstore: stat log: %w", err)
	}
	if st.Size() <= l.off {
		return nil
	}
	data := make([]byte, st.Size()-l.off)
	if _, err := l.rf.ReadAt(data, l.off); err != nil && err != io.EOF {
		return fmt.Errorf("resultstore: read log: %w", err)
	}
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) > 0 {
			if err := fn(line); err != nil {
				return err
			}
		}
	}
	// Only complete lines advance the frontier; a torn tail is re-read
	// once its writer finishes (or repairs) it.
	l.off += int64(start)
	return nil
}

// Close closes both handles. Reads and appends fail afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			first = err
		}
		l.f = nil
	}
	if l.rf != nil {
		if err := l.rf.Close(); err != nil && first == nil {
			first = err
		}
		l.rf = nil
	}
	if first != nil {
		return fmt.Errorf("resultstore: close log: %w", first)
	}
	return nil
}
