package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"lpmem/internal/stats"
	"lpmem/internal/sweep"
)

// maxSweepPoints bounds one HTTP-submitted sweep. The built-in spaces
// are all well under this; the cap exists so a hostile or buggy client
// cannot wedge the pool with an unbounded request.
const maxSweepPoints = 4096

// sweepManager owns the asynchronous sweeps a server has accepted. All
// sweeps share one in-memory store, so repeated sweeps of the same space
// are incremental across requests exactly like `lpmem sweep -resume`.
// Sweeps run one at a time in acceptance order, so however many are
// accepted, the server runs at most workers sweep evaluations at once.
type sweepManager struct {
	workers int

	mu sync.Mutex
	// jobs holds every accepted sweep in acceptance order: jobs[i] has
	// ID "S<i+1>". It only grows, so a copied header stays valid.
	jobs []*sweepJob
	// turn is closed once the last accepted sweep has settled.
	turn  chan struct{}
	store *sweep.Store
}

// sweepJob tracks one accepted sweep through running → settled.
type sweepJob struct {
	mu sync.Mutex

	id         string
	space      string
	objectives []string
	// status is "running" until the executor returns, then the batch
	// degradation vocabulary: "ok", "partial" (some points failed) or
	// "failed" (all did, or the executor itself errored).
	status string
	err    string

	total, done, evaluated, cached, failed int

	frontier    *stats.Table
	sensitivity *stats.Table
	results     *stats.Table

	// subs are the live SSE watchers; settled marks the job terminal so
	// late subscribers get an immediately-closed channel (stream handlers
	// then emit the final snapshot straight away).
	subs    []chan sweepStatus
	settled bool
}

// subscribe registers a progress watcher. The returned channel carries
// best-effort snapshots and is closed when the job settles; the cancel
// func detaches the watcher (idempotent, safe after settle).
func (j *sweepJob) subscribe() (<-chan sweepStatus, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan sweepStatus, 8)
	if j.settled {
		close(ch)
		return ch, func() {}
	}
	j.subs = append(j.subs, ch)
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
}

// publish pushes the current (table-free) snapshot to every watcher.
// Sends never block: a slow watcher skips intermediate snapshots but
// still sees the channel close that triggers the final one.
func (j *sweepJob) publish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := j.statusLocked()
	snap.Frontier, snap.Sensitivity, snap.Results = nil, nil, nil
	for _, ch := range j.subs {
		select {
		case ch <- snap:
		default:
		}
	}
}

// settleLocked marks the job terminal and releases every watcher.
// Callers hold j.mu.
func (j *sweepJob) settleLocked() {
	j.settled = true
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

func newSweepManager(workers int, store *sweep.Store) *sweepManager {
	if store == nil {
		// OpenStore("") cannot fail: memory-only stores touch no file.
		store, _ = sweep.OpenStore("")
	}
	turn := make(chan struct{})
	close(turn)
	return &sweepManager{workers: workers, store: store, turn: turn}
}

// sweepRequest is the POST /sweeps body.
type sweepRequest struct {
	// Space names the design space ("banks", "bus", "cache", "memhier",
	// "memtech", "nuca").
	Space string `json:"space"`
	// Points > 0 Latin-hypercube samples that many points; 0 sweeps the
	// full grid.
	Points int `json:"points"`
	// Seed drives sampling (default 1).
	Seed int64 `json:"seed"`
	// Objectives is a comma list for the frontier ("" = all three).
	Objectives string `json:"objectives"`
}

// sweepStatus is the GET /sweeps/{id} (and POST /sweeps accept) body.
type sweepStatus struct {
	ID         string   `json:"id"`
	Space      string   `json:"space"`
	Status     string   `json:"status"`
	Objectives []string `json:"objectives"`
	Total      int      `json:"total"`
	Done       int      `json:"done"`
	Evaluated  int      `json:"evaluated"`
	Cached     int      `json:"cached"`
	Failed     int      `json:"failed"`
	Error      string   `json:"error,omitempty"`
	// Tables are present once the sweep settles.
	Frontier    *stats.Table `json:"frontier,omitempty"`
	Sensitivity *stats.Table `json:"sensitivity,omitempty"`
	Results     *stats.Table `json:"results,omitempty"`
}

// snapshot captures the job under its lock.
func (j *sweepJob) snapshot() sweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked builds the status body; callers hold j.mu.
func (j *sweepJob) statusLocked() sweepStatus {
	return sweepStatus{
		ID: j.id, Space: j.space, Status: j.status, Objectives: j.objectives,
		Total: j.total, Done: j.done, Evaluated: j.evaluated,
		Cached: j.cached, Failed: j.failed, Error: j.err,
		Frontier: j.frontier, Sensitivity: j.sensitivity, Results: j.results,
	}
}

// start validates the request and enumerates the points, then accepts
// the sweep. It returns the accepted job or an error suitable for a 400.
func (m *sweepManager) start(req sweepRequest) (*sweepJob, error) {
	ad, err := sweep.ByName(req.Space)
	if err != nil {
		return nil, err
	}
	objs, err := sweep.ParseObjectives(req.Objectives)
	if err != nil {
		return nil, err
	}
	// Validate the requested sample size BEFORE enumerating: Sample
	// allocates proportionally to req.Points, so the bound must hold
	// before the allocation, not after. The post-enumeration check stays
	// for the Grid path, whose size is only known once enumerated.
	if req.Points > maxSweepPoints {
		return nil, fmt.Errorf("httpapi: sweep of %d points exceeds the %d-point cap", req.Points, maxSweepPoints)
	}
	sp := ad.Space()
	var pts []sweep.Point
	if req.Points > 0 {
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		pts, err = sp.Sample(req.Points, seed)
	} else {
		pts, err = sp.Grid()
	}
	if err != nil {
		return nil, err
	}
	if len(pts) > maxSweepPoints {
		return nil, fmt.Errorf("httpapi: sweep of %d points exceeds the %d-point cap; use \"points\" to sample", len(pts), maxSweepPoints)
	}

	return m.accept(ad, sp, objs, pts), nil
}

// accept registers a validated sweep and starts it in the background
// once every sweep accepted before it has settled.
func (m *sweepManager) accept(ad sweep.Adapter, sp sweep.Space, objs []string, pts []sweep.Point) *sweepJob {
	m.mu.Lock()
	job := &sweepJob{
		id:     fmt.Sprintf("S%d", len(m.jobs)+1),
		space:  ad.Name(),
		status: "running", objectives: objs, total: len(pts),
	}
	m.jobs = append(m.jobs, job)
	prev, done := m.turn, make(chan struct{})
	m.turn = done
	m.mu.Unlock()

	//lint:allow goroutine an accepted sweep deliberately outlives its request; run settles the job and exits, and the store keeps partial results if the server dies
	go m.run(job, ad, sp, pts, prev, done)
	return job
}

// run waits for its turn (prev), executes the sweep, settles the job and
// passes the turn on (done). It deliberately uses a background context:
// an accepted sweep outlives the request that submitted it (that is the
// point of the async surface), and the shared store keeps whatever a
// dying server managed to compute.
func (m *sweepManager) run(job *sweepJob, ad sweep.Adapter, sp sweep.Space, pts []sweep.Point, prev <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	<-prev
	res, err := sweep.Run(context.Background(), ad, pts, sweep.Config{
		Workers: m.workers,
		Store:   m.store,
		OnProgress: func(p sweep.Progress) {
			job.mu.Lock()
			job.done, job.cached, job.failed = p.Done, p.Cached, p.Failed
			job.mu.Unlock()
			job.publish()
		},
	})
	job.mu.Lock()
	defer job.mu.Unlock()
	// Settling (with the lock still held, before it is released) closes
	// every watcher channel; stream handlers then read the final tables
	// through snapshot(). LIFO defers: settle runs first, then Unlock.
	defer job.settleLocked()
	if err != nil {
		job.status, job.err = "failed", err.Error()
		return
	}
	job.done = res.Total
	job.evaluated, job.cached, job.failed = res.Evaluated, res.Cached, res.Failed
	job.frontier = sweep.FrontierTable(sp.Axes, sweep.Frontier(res.Outcomes, job.objectives), job.objectives)
	job.sensitivity = sweep.Sensitivity(sp.Axes, res.Outcomes)
	job.results = sweep.ResultsTable(sp.Axes, res.Outcomes)
	switch {
	case res.Failed == res.Total && res.Total > 0:
		job.status = "failed"
	case res.Failed > 0:
		job.status = "partial"
	default:
		job.status = "ok"
	}
}

// get returns the job by ID. Only the exact form "S<n>" resolves, so
// "S01" or "S+1" are unknown like any other ID.
func (m *sweepManager) get(id string) (*sweepJob, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := strconv.Atoi(strings.TrimPrefix(id, "S"))
	if err != nil || n < 1 || n > len(m.jobs) || m.jobs[n-1].id != id {
		return nil, false
	}
	return m.jobs[n-1], true
}

// list snapshots every job, newest first.
func (m *sweepManager) list() []sweepStatus {
	m.mu.Lock()
	jobs := m.jobs
	m.mu.Unlock()
	out := make([]sweepStatus, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		s := jobs[i].snapshot()
		// Listings stay light: tables are fetched per-ID.
		s.Frontier, s.Sensitivity, s.Results = nil, nil, nil
		out = append(out, s)
	}
	return out
}

// handleSweepSubmit implements POST /sweeps: accept a design-space
// sweep, start it in the background, and return 202 with its ID.
// With ?stream=1 the response becomes an SSE watch of the new sweep.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	// A client that already went away gets no work queued on its behalf.
	if r.Context().Err() != nil {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	var req sweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		release()
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad sweep request: %v", err))
		return
	}
	job, err := s.sweeps.start(req)
	if err != nil {
		release()
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// The admission slot covers acceptance, not the sweep itself (which
	// waits for the sweeps accepted before it, then runs on a pool of its
	// own) nor a long SSE watch.
	release()
	if wantsStream(r) {
		sse, ok := startSSE(w)
		if !ok {
			return
		}
		_ = sse.event("accepted", job.snapshot())
		s.streamSweep(w, r, job, sse)
		return
	}
	writeJSON(w, http.StatusAccepted, job.snapshot())
}

// handleSweepList implements GET /sweeps.
func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{"sweeps": s.sweeps.list()})
}

// handleSweepGet implements GET /sweeps/{id}: the degradation envelope
// for one sweep — 200 while running and for ok/partial results, 502 only
// when the whole sweep failed, mirroring the batch-run contract.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.sweeps.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown sweep %q", id))
		return
	}
	if wantsStream(r) {
		// Settled jobs subscribe onto a closed channel, so the watch
		// degenerates to an immediate done event.
		s.streamSweep(w, r, job, nil)
		return
	}
	snap := job.snapshot()
	status := http.StatusOK
	if snap.Status == "failed" {
		status = http.StatusBadGateway
	}
	writeJSON(w, status, snap)
}

// handleSweepSpaces implements GET /sweeps/spaces: the available design
// spaces with their axes and grid sizes.
func (s *Server) handleSweepSpaces(w http.ResponseWriter, r *http.Request) {
	type axisInfo struct {
		Name   string   `json:"name"`
		Kind   string   `json:"kind"`
		Min    int      `json:"min,omitempty"`
		Max    int      `json:"max,omitempty"`
		Values []string `json:"values,omitempty"`
	}
	type spaceInfo struct {
		Name        string     `json:"name"`
		Description string     `json:"description"`
		GridPoints  int        `json:"grid_points"`
		Axes        []axisInfo `json:"axes"`
	}
	var out []spaceInfo
	for _, ad := range sweep.Adapters() {
		sp := ad.Space()
		info := spaceInfo{
			Name: ad.Name(), Description: ad.Describe(), GridPoints: sp.GridSize(),
		}
		for _, a := range sp.Axes {
			info.Axes = append(info.Axes, axisInfo{
				Name: a.Name, Kind: a.Kind.String(), Min: a.Min, Max: a.Max, Values: a.Values,
			})
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"spaces": out})
}
