package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lpmem"
	"lpmem/internal/runner"
	"lpmem/internal/stats"
	"lpmem/internal/testutil"
)

// fakeExp builds a registry entry with an arbitrary run body; IDs reuse
// the E* shape so resolve() treats them like real experiments.
func fakeExp(id string, run func() (*lpmem.Result, error)) lpmem.Experiment {
	return lpmem.Experiment{ID: id, Title: "fake " + id, PaperClaim: "n/a", Run: run}
}

func okResult() (*lpmem.Result, error) {
	tbl := stats.NewTable("k", "v")
	tbl.AddRow("x", 1)
	return &lpmem.Result{Table: tbl, Summary: "fine"}, nil
}

// faultServer serves a three-experiment registry: one healthy, one
// erroring, one panicking.
func faultServer(t *testing.T, opts ...Option) (*httptest.Server, *lpmem.Engine) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2, NoCache: true})
	exps := []lpmem.Experiment{
		fakeExp("E1", okResult),
		fakeExp("E2", func() (*lpmem.Result, error) { return nil, errors.New("substrate offline") }),
		fakeExp("E3", func() (*lpmem.Result, error) { panic("injected table corruption") }),
	}
	opts = append(opts, WithExperiments(exps))
	ts := httptest.NewServer(New(eng, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

type batchBody struct {
	Status  string             `json:"status"`
	Count   int                `json:"count"`
	Failed  int                `json:"failed"`
	Results []lpmem.ResultJSON `json:"results"`
}

func postRun(t *testing.T, url string) (int, batchBody) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body batchBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("batch response is not valid JSON: %v", err)
	}
	return resp.StatusCode, body
}

// TestPartialBatch: a batch with mixed outcomes returns HTTP 200 with
// status "partial" and a per-ID envelope for every requested experiment —
// the healthy result is not discarded because its neighbours failed.
func TestPartialBatch(t *testing.T) {
	ts, _ := faultServer(t)
	code, body := postRun(t, ts.URL+"/run?ids=E1,E2,E3")
	if code != http.StatusOK || body.Status != "partial" {
		t.Fatalf("status %d %q", code, body.Status)
	}
	if body.Count != 3 || body.Failed != 2 || len(body.Results) != 3 {
		t.Fatalf("body: %+v", body)
	}
	if body.Results[0].ID != "E1" || body.Results[0].Error != "" || len(body.Results[0].Rows) == 0 {
		t.Fatalf("healthy envelope: %+v", body.Results[0])
	}
	if !strings.Contains(body.Results[1].Error, "substrate offline") {
		t.Fatalf("error envelope: %+v", body.Results[1])
	}
}

// TestPanicStackInEnvelope: a panicking experiment's JSON error envelope
// carries the panic value and its stack trace.
func TestPanicStackInEnvelope(t *testing.T) {
	ts, _ := faultServer(t)
	_, body := postRun(t, ts.URL+"/run?ids=E3")
	if len(body.Results) != 1 {
		t.Fatalf("results: %+v", body)
	}
	msg := body.Results[0].Error
	if !strings.Contains(msg, "injected table corruption") {
		t.Fatalf("panic value missing: %s", msg)
	}
	if !strings.Contains(msg, "stack:") || !strings.Contains(msg, "goroutine") {
		t.Fatalf("stack trace missing from envelope: %s", msg)
	}
}

// TestAllFailedBatch: when every requested experiment fails, the batch
// maps to HTTP 502 with status "failed" but still carries the envelopes.
func TestAllFailedBatch(t *testing.T) {
	ts, _ := faultServer(t)
	code, body := postRun(t, ts.URL+"/run?ids=E2,E3")
	if code != http.StatusBadGateway || body.Status != "failed" {
		t.Fatalf("status %d %q", code, body.Status)
	}
	if body.Failed != 2 || len(body.Results) != 2 {
		t.Fatalf("body: %+v", body)
	}
	for _, r := range body.Results {
		if r.Error == "" {
			t.Fatalf("envelope without error: %+v", r)
		}
	}
}

// TestHealthzDegraded: open breakers flip /healthz to 503 "degraded"
// listing the cooling experiments; a successful probe after the cooldown
// closes the breaker and restores "ok".
func TestHealthzDegraded(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const cooldown = 30 * time.Millisecond
	eng := lpmem.NewEngine(runner.Options{
		Workers: 1, NoCache: true,
		BreakerThreshold: 1, BreakerCooldown: cooldown,
	})
	var healthy atomic.Bool
	exps := []lpmem.Experiment{
		fakeExp("E2", func() (*lpmem.Result, error) {
			if healthy.Load() {
				return okResult()
			}
			return nil, errors.New("down")
		}),
	}
	ts := httptest.NewServer(New(eng, WithExperiments(exps)).Handler())
	t.Cleanup(ts.Close)

	var hb map[string]interface{}
	if code := get(t, ts.URL+"/healthz", &hb); code != http.StatusOK || hb["status"] != "ok" {
		t.Fatalf("fresh healthz: %d %v", code, hb)
	}
	// One failure trips the threshold-1 breaker.
	postRun(t, ts.URL+"/run?ids=E2")
	if code := get(t, ts.URL+"/healthz", &hb); code != http.StatusServiceUnavailable || hb["status"] != "degraded" {
		t.Fatalf("degraded healthz: %d %v", code, hb)
	}
	breakers, ok := hb["breakers"].(map[string]interface{})
	if !ok || breakers["E2"] != string(runner.BreakerOpen) {
		t.Fatalf("breakers body: %v", hb)
	}
	// Metrics mirror the same state.
	var m MetricsSnapshot
	get(t, ts.URL+"/metrics", &m)
	if m.Breakers["E2"] != runner.BreakerOpen || m.Runner.BreakerOpens != 1 {
		t.Fatalf("metrics breakers: %+v", m)
	}
	healthy.Store(true)
	time.Sleep(2 * cooldown)
	if code, body := postRun(t, ts.URL+"/run?ids=E2"); code != http.StatusOK {
		t.Fatalf("probe run: %d %+v", code, body)
	}
	if code := get(t, ts.URL+"/healthz", &hb); code != http.StatusOK || hb["status"] != "ok" {
		t.Fatalf("healthz after a successful probe: %d %v", code, hb)
	}
}

// TestRequestTimeout: a configured request timeout converts a stuck
// experiment into a per-ID deadline error instead of hanging the
// connection, and the healthy neighbour still completes.
func TestRequestTimeout(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{Workers: 2, NoCache: true})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	exps := []lpmem.Experiment{
		fakeExp("E1", okResult),
		fakeExp("E2", func() (*lpmem.Result, error) {
			<-release
			return okResult()
		}),
	}
	ts := httptest.NewServer(New(eng,
		WithExperiments(exps),
		WithRequestTimeout(50*time.Millisecond),
	).Handler())
	t.Cleanup(ts.Close)

	code, body := postRun(t, ts.URL+"/run?ids=E1,E2")
	if code != http.StatusOK || body.Status != "partial" {
		t.Fatalf("status %d %q", code, body.Status)
	}
	if body.Results[0].Error != "" {
		t.Fatalf("fast experiment failed: %+v", body.Results[0])
	}
	if !strings.Contains(body.Results[1].Error, "deadline exceeded") {
		t.Fatalf("stuck experiment error: %+v", body.Results[1])
	}
}

// TestRetriesThroughHTTP: engine retries heal a transiently failing
// experiment behind the API, and /metrics exposes the retry count.
func TestRetriesThroughHTTP(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := lpmem.NewEngine(runner.Options{
		Workers: 1, NoCache: true, Retries: 2,
	})
	fails := 2
	exps := []lpmem.Experiment{
		fakeExp("E1", func() (*lpmem.Result, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("transient")
			}
			return okResult()
		}),
	}
	ts := httptest.NewServer(New(eng, WithExperiments(exps)).Handler())
	t.Cleanup(ts.Close)

	code, body := postRun(t, ts.URL+"/run?ids=E1")
	if code != http.StatusOK || body.Status != "ok" || body.Results[0].Error != "" {
		t.Fatalf("healed batch: %d %+v", code, body)
	}
	var m MetricsSnapshot
	get(t, ts.URL+"/metrics", &m)
	if m.Runner.Retries != 2 {
		t.Fatalf("retries metric = %d", m.Runner.Retries)
	}
}
