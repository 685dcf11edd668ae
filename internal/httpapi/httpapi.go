// Package httpapi implements the lpmemd HTTP surface over the concurrent
// experiment engine: experiment listing, single-experiment runs (served
// from the engine cache when warm), parallel batch runs, and a metrics
// snapshot. Responses are JSON; only net/http from the standard library
// is used.
//
// The surface degrades gracefully rather than failing all-or-nothing:
// batch responses carry a per-experiment error envelope for every
// requested ID (status "partial" when some fail, HTTP 502 only when all
// do), an optional request timeout bounds each run, and /healthz reports
// "degraded" with HTTP 503 while any experiment's circuit breaker is
// open.
//
//lint:untrusted-input
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lpmem"
	"lpmem/internal/resultstore"
	"lpmem/internal/runner"
	"lpmem/internal/sweep"
)

// Server owns the engine and the registry snapshot it serves.
type Server struct {
	eng        *lpmem.Engine
	exps       []lpmem.Experiment
	byID       map[string]lpmem.Experiment
	started    time.Time
	requests   atomic.Uint64
	reqTimeout time.Duration
	sweeps     *sweepManager

	// adm is the bounded admission queue (nil = unlimited), store the
	// cross-replica result store (nil = none), sweepStore the persistent
	// sweep point store (nil = per-process memory store).
	adm        *admission
	store      *resultstore.Store
	sweepStore *sweep.Store
	// serviceDelay is an artificial per-admitted-request delay; see
	// WithServiceDelay.
	serviceDelay time.Duration

	accessLogState
}

// Option customises a Server.
type Option func(*Server)

// WithRequestTimeout bounds each run request (single or batch): on
// expiry, in-flight experiments are cancelled and reported per-ID in the
// response envelope instead of hanging the connection. 0 means no bound.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.reqTimeout = d }
}

// WithExperiments overrides the served registry. Fault-injection tests
// use it to expose deliberately broken experiments; production callers
// serve the default full registry.
//
//lint:allow testonly the benchmark module (benchmark/serve.go) serves its timed registry through it, and the loader does not walk nested modules
func WithExperiments(exps []lpmem.Experiment) Option {
	return func(s *Server) { s.exps = exps }
}

// WithAdmission bounds the work the replica accepts: at most capacity
// run/sweep requests execute concurrently, at most queue more wait, and
// the rest are shed with 429 + jittered Retry-After. capacity <= 0
// disables admission control.
func WithAdmission(capacity, queue int) Option {
	return func(s *Server) { s.adm = newAdmission(capacity, queue) }
}

// WithResultStore plugs in the content-addressed experiment result
// store. Replicas pointed at the same store file share results: a
// request any replica has computed is served from the store everywhere,
// surviving restarts.
func WithResultStore(store *resultstore.Store) Option {
	return func(s *Server) { s.store = store }
}

// WithSweepStore replaces the per-process in-memory sweep point store
// with a persistent one (normally sharing a directory with the result
// store), making /sweeps incremental across replicas and restarts.
func WithSweepStore(store *sweep.Store) Option {
	return func(s *Server) { s.sweepStore = store }
}

// WithAccessLog enables structured access logging: one JSON line per
// request (time, request ID, method, path, status, bytes, duration) to
// w. The server serialises writes; w need not be concurrency-safe.
func WithAccessLog(w io.Writer) Option {
	return func(s *Server) { s.accessLog = w }
}

// WithServiceDelay adds a fixed, context-cancellable delay to every
// admitted work request before it touches the engine. It models a
// downstream dependency's service time so the replica-scaling bench is
// concurrency-bound rather than CPU-bound on small hosts; production
// servers leave it zero.
func WithServiceDelay(d time.Duration) Option {
	return func(s *Server) { s.serviceDelay = d }
}

// New creates a server around an engine, serving the full registry
// unless an option narrows it.
func New(eng *lpmem.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, exps: lpmem.Experiments(), started: time.Now()}
	for _, opt := range opts {
		opt(s)
	}
	s.byID = make(map[string]lpmem.Experiment, len(s.exps))
	for _, e := range s.exps {
		s.byID[e.ID] = e
	}
	s.sweeps = newSweepManager(eng.Workers(), s.sweepStore)
	return s
}

// jobs adapts exps to engine jobs. With a result store configured, the
// store is the engine's second tier behind its memory cache: Load serves
// a result any replica stored, and Run appends what it computes before
// the engine releases the key's in-flight slot, so a replica with a
// caching engine appends each key at most once. An attempt whose context
// ended — one the engine abandons at its deadline — appends nothing, as
// the engine discards its result too. stored counts the appends these
// jobs make.
func (s *Server) jobs(exps []lpmem.Experiment, stored *atomic.Int64) []runner.Job[*lpmem.Result] {
	jobs := lpmem.Jobs(exps)
	if s.store == nil {
		return jobs
	}
	for i := range jobs {
		exp, key, run := exps[i], jobs[i].Key, jobs[i].Run
		jobs[i].Load = func() (*lpmem.Result, bool) {
			raw, ok := s.store.Get(key)
			if !ok {
				return nil, false
			}
			var env lpmem.ResultJSON
			if err := json.Unmarshal(raw, &env); err != nil {
				return nil, false
			}
			return env.Result(), true
		}
		jobs[i].Run = func(ctx context.Context) (*lpmem.Result, error) {
			res, err := run(ctx)
			if err != nil || ctx.Err() != nil {
				return res, err
			}
			env := lpmem.Report{Experiment: exp, Outcome: runner.Outcome[*lpmem.Result]{Value: res}}.JSON()
			if s.store.Put(key, env) == nil {
				stored.Add(1)
			}
			return res, nil
		}
	}
	return jobs
}

// run executes exps through the engine's tiers and returns one envelope
// per experiment, in input order, plus how many results it appended to
// the store. emit, when non-nil, receives each envelope as its job
// settles, concurrently from pool workers.
func (s *Server) run(ctx context.Context, exps []lpmem.Experiment, emit func(lpmem.ResultJSON)) ([]lpmem.ResultJSON, int) {
	var stored atomic.Int64
	envs := make([]lpmem.ResultJSON, len(exps))
	s.eng.RunFunc(ctx, s.jobs(exps, &stored), func(i int, o runner.Outcome[*lpmem.Result]) {
		envs[i] = lpmem.Report{Experiment: exps[i], Outcome: o}.JSON()
		if emit != nil {
			emit(envs[i])
		}
	})
	return envs, int(stored.Load())
}

// delay applies the configured synthetic service delay, honouring
// cancellation.
func (s *Server) delay(ctx context.Context) {
	if s.serviceDelay <= 0 {
		return
	}
	t := time.NewTimer(s.serviceDelay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runCtx derives the per-request run context from the configured bound.
func (s *Server) runCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return r.Context(), func() {}
}

// Handler returns the route table:
//
//	GET  /experiments        registry listing
//	GET  /experiments/{id}   run one experiment (cache/store-served when warm)
//	POST /run?ids=E1,E7      parallel batch run ("all" or empty = registry);
//	                         &stream=1 switches to SSE per-result events
//	POST /sweeps             start a design-space sweep (202 + id);
//	                         ?stream=1 follows progress over SSE instead
//	GET  /sweeps             list accepted sweeps
//	GET  /sweeps/spaces      list the available design spaces
//	GET  /sweeps/{id}        sweep status: running/ok/partial/failed + tables;
//	                         ?stream=1 follows progress over SSE
//	GET  /metrics            engine + HTTP + admission + store counters
//	GET  /healthz            liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /experiments", s.handleList)
	mux.HandleFunc("GET /experiments/{id}", s.handleOne)
	mux.HandleFunc("POST /run", s.handleBatch)
	mux.HandleFunc("POST /sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /sweeps", s.handleSweepList)
	mux.HandleFunc("GET /sweeps/spaces", s.handleSweepSpaces)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.count(s.instrument(mux))
}

// handleHealthz reflects the engine's circuit-breaker state: "ok" while
// every breaker is closed, "degraded" (HTTP 503) while any experiment is
// cooling down — load balancers can stop routing to a wedged instance
// without the healthy experiments going dark.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	breakers := s.eng.BreakerStates()
	if len(breakers) == 0 {
		writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
		"status":   "degraded",
		"breakers": breakers,
	})
}

// count wraps the mux with the request counter.
func (s *Server) count(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		next.ServeHTTP(w, r)
	})
}

// listEntry is the /experiments row: registry metadata without results.
type listEntry struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	PaperClaim string `json:"paper_claim"`
	Cached     bool   `json:"cached"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := make([]listEntry, len(s.exps))
	for i, e := range s.exps {
		entries[i] = listEntry{
			ID:         e.ID,
			Title:      e.Title,
			PaperClaim: e.PaperClaim,
			Cached:     s.eng.Cached(lpmem.CacheKey(e.ID)),
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"registry_version": lpmem.RegistryVersion,
		"count":            len(entries),
		"experiments":      entries,
	})
}

func (s *Server) handleOne(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	exp, ok := s.byID[id]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q", id))
		return
	}
	// A client that hung up while this request sat in net/http's accept
	// backlog gets no work done on its behalf.
	if r.Context().Err() != nil {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.delay(r.Context())
	ctx, cancel := s.runCtx(r)
	defer cancel()
	envs, _ := s.run(ctx, []lpmem.Experiment{exp}, nil)
	status := http.StatusOK
	if envs[0].Error != "" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, envs[0])
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	exps, err := s.resolve(r.URL.Query().Get("ids"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// Dead clients don't get work enqueued for them (the disconnect can
	// predate the handler under load).
	if r.Context().Err() != nil {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.delay(r.Context())
	// The stream arm differs only in emitting each result as it settles
	// and a summary event in place of the JSON body.
	var sse *sseWriter
	var emit func(lpmem.ResultJSON)
	if wantsStream(r) {
		if sse, ok = startSSE(w); !ok {
			return
		}
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		_ = sse.event("start", map[string]interface{}{"count": len(exps), "ids": ids})
		// Events race only against each other; sseWriter serialises.
		emit = func(env lpmem.ResultJSON) { _ = sse.event("result", env) }
	}
	ctx, cancel := s.runCtx(r)
	defer cancel()
	start := time.Now()
	envs, stored := s.run(ctx, exps, emit)
	failed := 0
	for i := range envs {
		if envs[i].Error != "" {
			failed++
		}
	}
	// Failures degrade, they don't take the batch down: every requested
	// ID gets its own envelope (value or error), the batch-level status
	// summarises, and only a fully failed batch maps to an error code.
	status, httpStatus := "ok", http.StatusOK
	switch {
	case failed == len(envs) && failed > 0:
		status, httpStatus = "failed", http.StatusBadGateway
	case failed > 0:
		status = "partial"
	}
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)
	if sse != nil {
		_ = sse.event("done", map[string]interface{}{
			"status":     status,
			"count":      len(envs),
			"failed":     failed,
			"stored":     stored,
			"elapsed_ms": elapsedMS,
		})
		return
	}
	writeJSON(w, httpStatus, map[string]interface{}{
		"status":     status,
		"count":      len(envs),
		"failed":     failed,
		"elapsed_ms": elapsedMS,
		"results":    envs,
	})
}

// resolve expands the ids query parameter ("", "all", or "E1,E7,...")
// into registry entries, rejecting unknown IDs and deduplicating while
// preserving request order.
func (s *Server) resolve(ids string) ([]lpmem.Experiment, error) {
	ids = strings.TrimSpace(ids)
	if ids == "" || ids == "all" {
		return s.exps, nil
	}
	var out []lpmem.Experiment
	seen := map[string]bool{}
	for _, raw := range strings.Split(ids, ",") {
		id := strings.TrimSpace(raw)
		if id == "" || seen[id] {
			continue
		}
		exp, ok := s.byID[id]
		if !ok {
			known := make([]string, 0, len(s.byID))
			for k := range s.byID {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ","))
		}
		seen[id] = true
		out = append(out, exp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiment ids in %q", ids)
	}
	return out, nil
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	RegistryVersion string                         `json:"registry_version"`
	UptimeSeconds   float64                        `json:"uptime_seconds"`
	HTTPRequests    uint64                         `json:"http_requests"`
	Workers         int                            `json:"workers"`
	CacheEntries    int                            `json:"cache_entries"`
	Runner          lpmem.Metrics                  `json:"runner"`
	Breakers        map[string]runner.BreakerState `json:"breakers,omitempty"`
	// Admission reports the load-shedding queue (absent when admission
	// control is disabled); Store the shared result store (absent when
	// the replica runs storeless).
	Admission *AdmissionStats    `json:"admission,omitempty"`
	Store     *resultstore.Stats `json:"store,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := MetricsSnapshot{
		RegistryVersion: lpmem.RegistryVersion,
		UptimeSeconds:   time.Since(s.started).Seconds(),
		HTTPRequests:    s.requests.Load(),
		Workers:         s.eng.Workers(),
		CacheEntries:    s.eng.CacheLen(),
		Runner:          s.eng.Metrics(),
		Breakers:        s.eng.BreakerStates(),
	}
	if s.adm != nil {
		st := s.adm.stats()
		snap.Admission = &st
	}
	if s.store != nil {
		st := s.store.Stats()
		snap.Store = &st
	}
	writeJSON(w, http.StatusOK, snap)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
