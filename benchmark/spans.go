package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key links spans of one request or design point (the X-Request-ID
	// on both sides of an HTTP request, the store key of a sweep job).
	Key   string        `json:"key,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs take the same code paths at no cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, key string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// find returns the spans with the given name.
func (t *tracer) find(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the named spans' durations.
func (t *tracer) seconds(name string) float64 {
	var sum time.Duration
	for _, s := range t.find(name) {
		sum += s.End - s.Start
	}
	return sum.Seconds()
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// settle collects garbage before a timed repetition, outside its timed
// region, so each repetition starts from the same heap state instead of
// inheriting a half-finished GC cycle from the last.
func settle() { runtime.GC() }

// repeat paces a workload's repetitions over the measuring time: the
// first always runs, and another only when, at the mean repetition time
// so far, it should end within the budget.
type repeat struct {
	n      int
	start  time.Time
	budget time.Duration
}

func repeater(budget time.Duration) *repeat { return &repeat{n: -1, budget: budget} }

// next reports whether to run repetition r.n.
func (r *repeat) next() bool {
	if r.n++; r.n == 0 {
		r.start = time.Now()
		return true
	}
	elapsed := time.Since(r.start)
	return elapsed+elapsed/time.Duration(r.n) <= r.budget
}

// heapAllocs reads the cumulative heap allocation count. runtime/metrics
// does not stop the world, unlike runtime.ReadMemStats.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the q-quantile (0..1) of sorted samples, as
// `lpmem loadgen` computes it, and how many samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i], len(sorted) - i - 1
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
