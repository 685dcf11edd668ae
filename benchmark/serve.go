package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lpmem"
	"lpmem/internal/httpapi"
	"lpmem/internal/regress"
	"lpmem/internal/resultstore"
	"lpmem/internal/runner"
	"lpmem/internal/stats"
)

// Load is sized for a 2-core host from one process: two closed-loop
// clients over at most two connections, against a 2-worker engine.
const (
	serveClients = 2
	serveWorkers = 2
	// Each replica serves warmWindows windows of warmPerClient requests
	// per client; the median over many short windows shrugs off a GC
	// cycle or a scheduling hiccup. Fixed counts (a multiple of the
	// 10-request mix deck) make the store and admission counters repeat
	// exactly.
	warmWindows   = 4
	warmPerClient = 1000
)

// serve drives in-process lpmemd replicas configured like the CI serve
// stage.
type serve struct {
	dir     string
	seed    int64
	goldens map[string]regress.Snapshot
	ids     []string
	client  *http.Client
}

// newServe is the serve workload's client-side set-up.
func newServe(cfg config, dir string) (*serve, error) {
	goldens, err := loadGoldens(cfg.golden)
	if err != nil {
		return nil, err
	}
	s := &serve{dir: dir, seed: cfg.seed, goldens: goldens}
	for _, e := range lpmem.Experiments() {
		s.ids = append(s.ids, e.ID)
	}
	// The timeout turns a wedged replica into failed requests instead of
	// a hung run; a cold fill takes a few seconds.
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
	}}
	return s, nil
}

// replica is one lpmemd instance on a loopback port.
type replica struct {
	base  string
	srv   *http.Server
	store *resultstore.Store
	log   *os.File
	done  chan error
}

// startReplica brings up a fresh replica: lpmemd's default engine
// options with 2 workers, an empty file-backed result store, admission
// capacity 4 with a queue of 8, and the access log written to a file.
// Traced, each experiment run and each handler call records a span.
func (s *serve) startReplica(n int, tr *tracer) (*replica, error) {
	store, err := resultstore.Open(filepath.Join(s.dir, fmt.Sprintf("results-%d.jsonl", n)), resultstore.Options{})
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("access-%d.log", n)))
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	eng := lpmem.NewEngine(runner.Options{
		Workers: serveWorkers, Timeout: 2 * time.Minute, Retries: 2,
		BreakerThreshold: 3, BreakerCooldown: 30 * time.Second,
	})
	opts := []httpapi.Option{
		httpapi.WithRequestTimeout(5 * time.Minute),
		httpapi.WithAdmission(4, 8),
		httpapi.WithResultStore(store),
		httpapi.WithAccessLog(log),
	}
	if tr != nil {
		opts = append(opts, httpapi.WithExperiments(timedExperiments(tr)))
	}
	handler := httpapi.New(eng, opts...).Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = store.Close()
		_ = log.Close()
		return nil, err
	}
	r := &replica{
		base:  "http://" + ln.Addr().String(),
		srv:   &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		store: store,
		log:   log,
		done:  make(chan error, 1),
	}
	go func() { r.done <- r.srv.Serve(ln) }()
	return r, nil
}

// close drains the replica and waits for its server goroutine.
func (r *replica) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serveErr := <-r.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, r.store.Close(), r.log.Close())
}

// timedExperiments is the registry with every Run inside a span.
func timedExperiments(tr *tracer) []lpmem.Experiment {
	exps := lpmem.Experiments()
	for i := range exps {
		e := exps[i]
		exps[i].Run = func() (*lpmem.Result, error) {
			id := tr.begin("serve.exp.run", 0, e.ID)
			defer tr.end(id)
			return e.Run()
		}
	}
	return exps
}

// tracedHandler records a span per request around the server's handler,
// keyed by the client's X-Request-ID and named by endpoint.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := "other"
		switch {
		case r.URL.Path == "/experiments":
			kind = "list"
		case strings.HasPrefix(r.URL.Path, "/experiments/"):
			kind = "one"
		case r.URL.Path == "/run":
			kind = "batch"
		}
		id := tr.begin("httpapi."+kind, 0, r.Header.Get("X-Request-ID"))
		defer tr.end(id)
		next.ServeHTTP(w, r)
	})
}

// window is one closed-loop warm window.
type window struct {
	wall time.Duration
	// latMS holds every request's latency, sorted; failures read +Inf,
	// so they miss any latency limit.
	latMS []float64
}

// serveCycle is one replica's life: cold fill, then warm windows.
type serveCycle struct {
	coldFill             time.Duration
	windows              []window
	storeCold, storeWarm resultstore.Stats
	admission            httpapi.AdmissionStats
}

// cycle starts replica n, fills it cold with POST /run?ids=all, then
// runs the closed-loop warm windows and shuts the replica down.
func (s *serve) cycle(b *bench, n int, tr *tracer) (serveCycle, error) {
	var c serveCycle
	r, err := s.startReplica(n, tr)
	if err != nil {
		return c, err
	}
	before := r.store.Stats()
	settle()
	start := time.Now()
	body, status, err := s.do(http.MethodPost, r.base+"/run?ids=all", fmt.Sprintf("cold-%d", n), tr)
	c.coldFill = time.Since(start)
	if err == nil {
		err = s.checkBatch(status, body, s.ids)
	}
	b.check("serve cold fill", err)
	afterCold := r.store.Stats()

	validated := make([]map[string][]byte, serveClients)
	for cl := range validated {
		validated[cl] = map[string][]byte{}
	}
	for w := 0; w < warmWindows; w++ {
		settle()
		start = time.Now()
		lat, fails := s.warmWindow(r.base, fmt.Sprintf("w%d.%d", n, w), tr, validated)
		c.windows = append(c.windows, window{wall: time.Since(start), latMS: lat})
		for _, f := range fails {
			b.check("serve warm request", f)
		}
	}
	c.storeCold = statsDelta(before, afterCold)
	c.storeWarm = statsDelta(afterCold, r.store.Stats())
	if tr != nil {
		if c.admission, err = s.admission(r.base); err != nil {
			_ = r.close()
			return c, err
		}
	}
	return c, r.close()
}

// warmWindow runs the closed-loop clients, warmPerClient requests each,
// and returns the sorted latencies and one entry per request: nil when
// it succeeded with a correct body. Request IDs start with prefix.
func (s *serve) warmWindow(base, prefix string, tr *tracer, validated []map[string][]byte) ([]float64, []error) {
	lat := make([][]float64, serveClients)
	errs := make([][]error, serveClients)
	var wg sync.WaitGroup
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := fnv.New64a()
			fmt.Fprintf(h, "%d/%s/%d", s.seed, prefix, cl)
			rng := rand.New(rand.NewSource(int64(h.Sum64())))
			var deck []string
			for i := 0; i < warmPerClient; i++ {
				if len(deck) == 0 {
					deck = s.deck(rng)
				}
				kind := deck[0]
				deck = deck[1:]
				method, path, want := s.request(rng, kind)
				id := fmt.Sprintf("%s-%d-%d", prefix, cl, i)
				t0 := time.Now()
				body, status, err := s.do(method, base+path, id, tr)
				d := ms(time.Since(t0))
				if err == nil {
					err = s.checkWarm(kind, path, status, body, want, validated[cl])
				}
				if err != nil {
					d = math.Inf(1)
				}
				lat[cl] = append(lat[cl], d)
				errs[cl] = append(errs[cl], err)
			}
		}()
	}
	wg.Wait()
	var all []float64
	var out []error
	for cl := range lat {
		all = append(all, lat[cl]...)
		out = append(out, errs[cl]...)
	}
	sort.Float64s(all)
	return all, out
}

// deck is one shuffled block of the one=8,batch=1,list=1 mix.
func (s *serve) deck(rng *rand.Rand) []string {
	d := []string{"one", "one", "one", "one", "one", "one", "one", "one", "batch", "list"}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// request draws the IDs of one request over all 26 experiments.
func (s *serve) request(rng *rand.Rand, kind string) (method, path string, ids []string) {
	switch kind {
	case "one":
		id := s.ids[rng.Intn(len(s.ids))]
		return http.MethodGet, "/experiments/" + id, []string{id}
	case "batch":
		a := rng.Intn(len(s.ids))
		b := (a + 1 + rng.Intn(len(s.ids)-1)) % len(s.ids)
		return http.MethodPost, "/run?ids=" + s.ids[a] + "," + s.ids[b], []string{s.ids[a], s.ids[b]}
	default:
		return http.MethodGet, "/experiments", s.ids
	}
}

// do sends one request and reads the whole body. Traced, the client
// side records an http.client span under the request ID.
func (s *serve) do(method, url, id string, tr *tracer) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Request-ID", id)
	span := tr.begin("http.client", 0, id)
	defer tr.end(span)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// checkWarm validates one warm response. A body byte-identical to one
// this client already validated for the same path is valid; batch
// bodies carry a per-request elapsed_ms, so they are always decoded.
func (s *serve) checkWarm(kind, path string, status int, body []byte, want []string, validated map[string][]byte) error {
	if kind == "batch" {
		return s.checkBatch(status, body, want)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", path, status, body)
	}
	if v, ok := validated[path]; ok && bytes.Equal(v, body) {
		return nil
	}
	var err error
	if kind == "one" {
		var env lpmem.ResultJSON
		if err = json.Unmarshal(body, &env); err == nil {
			err = s.checkEnvelope(env, want[0])
		}
	} else {
		var list struct {
			Experiments []struct {
				ID string `json:"id"`
			} `json:"experiments"`
		}
		if err = json.Unmarshal(body, &list); err == nil {
			var got []string
			for _, e := range list.Experiments {
				got = append(got, e.ID)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				err = fmt.Errorf("listed %v, want %v", got, want)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	validated[path] = body
	return nil
}

// checkBatch validates a POST /run body: HTTP 200, status ok, and every
// requested table equal to its golden.
func (s *serve) checkBatch(status int, body []byte, want []string) error {
	if status != http.StatusOK {
		return fmt.Errorf("batch: HTTP %d: %.200s", status, body)
	}
	var batch struct {
		Status  string             `json:"status"`
		Results []lpmem.ResultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if batch.Status != "ok" || len(batch.Results) != len(want) {
		return fmt.Errorf("batch: status %q with %d results, want ok with %d", batch.Status, len(batch.Results), len(want))
	}
	var problems []string
	for i, env := range batch.Results {
		if err := s.checkEnvelope(env, want[i]); err != nil {
			problems = append(problems, err.Error())
		}
	}
	return errCheck(problems)
}

// checkEnvelope compares one served result with its golden.
func (s *serve) checkEnvelope(env lpmem.ResultJSON, want string) error {
	if env.ID != want || env.Error != "" {
		return fmt.Errorf("result %s (error %q), want %s", env.ID, env.Error, want)
	}
	return checkSnapshot(s.goldens, regress.Snapshot{ID: env.ID, Summary: env.Summary, Header: env.Header, Rows: env.Rows})
}

// admission reads the replica's admission counters from /metrics.
func (s *serve) admission(base string) (httpapi.AdmissionStats, error) {
	body, status, err := s.do(http.MethodGet, base+"/metrics", "metrics", nil)
	if err != nil {
		return httpapi.AdmissionStats{}, err
	}
	var m httpapi.MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil || status != http.StatusOK || m.Admission == nil {
		return httpapi.AdmissionStats{}, fmt.Errorf("/metrics: HTTP %d without admission block (%v)", status, err)
	}
	return *m.Admission, nil
}

// statsDelta is the store activity between two snapshots.
func statsDelta(a, b resultstore.Stats) resultstore.Stats {
	return resultstore.Stats{
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		FileReads: b.FileReads - a.FileReads, Appends: b.Appends - a.Appends,
	}
}

// measureServe is the untraced serve workload.
func measureServe(b *bench, dir string) error {
	s, err := newServe(b.cfg, dir)
	if err != nil {
		return err
	}
	var colds, rps, p50s, all []float64
	reps := repeater(b.cfg.seconds)
	for reps.next() {
		c, err := s.cycle(b, reps.n, nil)
		if err != nil {
			return err
		}
		colds = append(colds, c.coldFill.Seconds())
		for _, w := range c.windows {
			rps = append(rps, float64(len(w.latMS))/w.wall.Seconds())
			p50, _ := percentile(w.latMS, 0.50)
			p50s = append(p50s, p50)
			all = append(all, w.latMS...)
		}
	}
	// Cold fill times are bimodal: the heavy experiments land on one
	// worker or the other. Their median would jump between the modes as
	// their mix shifts, so they are reduced by the interquartile mean;
	// per-window warm figures by their median.
	cold, rate, p50 := interquartileMean(colds), stats.Median(rps), stats.Median(p50s)
	b.set("cold_s", cold, "s")
	b.set("ops_per_s", rate, "1/s")
	b.set("latency_ms", p50, "ms")
	sort.Float64s(all)
	p99, beyond := percentile(all, 0.99)
	fmt.Fprintf(b.report, "cold_fill_s %.4f s (interquartile mean; replicas %s s)\n", cold, list(colds))
	fmt.Fprintf(b.report, "rps %.1f req/s (median; windows %s req/s)\n", rate, list(rps))
	fmt.Fprintf(b.report, "p50_ms %.4f ms (median; windows %s ms; n=%d)\n", p50, list(p50s), len(all))
	fmt.Fprintf(b.report, "p99_ms %.4f ms (n=%d, %d samples beyond)\n", p99, len(all), beyond)
	return nil
}
