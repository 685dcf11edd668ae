package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// The streaming surface: `POST /run?stream=1` and the sweep endpoints
// with `?stream=1` switch the response to Server-Sent Events so a
// long-running batch or sweep reports progress as it happens instead of
// holding a silent connection until everything settles.
//
// Event schema (one JSON body per `data:` line):
//
//	POST /run?stream=1
//	  event: start    {"count":N,"ids":["E1",...]}
//	  event: result   one lpmem.ResultJSON envelope, in completion order
//	  event: done     {"status":"ok|partial|failed","count":N,"failed":F,
//	                   "stored":S,"elapsed_ms":...}
//	                  S counts the results this batch computed and
//	                  appended to the result store; hits append nothing.
//
//	POST /sweeps?stream=1, GET /sweeps/{id}?stream=1
//	  event: accepted the sweepStatus snapshot at acceptance (POST only)
//	  event: progress sweepStatus without tables, per executor batch
//	  event: done     full sweepStatus including tables
//
// A client that goes away cancels the work it was watching: the request
// context aborts the batch run (jobs not yet dispatched report the
// cancellation) or detaches the sweep subscription (the sweep itself
// keeps running — it is an accepted background job; only the watch
// ends).
//
// sseWriter serialises concurrent event emission (batch results arrive
// from pool workers) and flushes after every event so events actually
// leave the process while work continues.
type sseWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

// startSSE switches the response to an event stream. It fails (false)
// when the ResponseWriter cannot flush — streaming through a buffering
// middleware would silently batch every event to the end, which is
// exactly what stream=1 exists to avoid.
func startSSE(w http.ResponseWriter) (*sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "response writer does not support streaming")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseWriter{w: w, fl: fl}, true
}

// event emits one named SSE event. Write errors are returned so emitters
// can stop early on a dead client, but callers may also ignore them —
// the request context is the authoritative disconnect signal.
func (s *sseWriter) event(name string, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("httpapi: encode %s event: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, body); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// streamSweep follows one accepted sweep over SSE until it settles or
// the client goes away. Progress events are best-effort snapshots (a
// slow client skips intermediate ones, never the final); the done event
// re-reads the settled job so it always carries the full result.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, job *sweepJob, sse *sseWriter) {
	if sse == nil {
		var ok bool
		if sse, ok = startSSE(w); !ok {
			return
		}
	}
	ch, unsub := job.subscribe()
	defer unsub()
	for {
		select {
		case snap, open := <-ch:
			if !open {
				// Settled: the terminal snapshot carries the tables.
				_ = sse.event("done", job.snapshot())
				return
			}
			if err := sse.event("progress", snap); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// wantsStream reports the ?stream=1 switch.
func wantsStream(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}
