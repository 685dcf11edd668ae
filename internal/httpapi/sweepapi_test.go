package httpapi

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpmem/internal/sweep"
	"lpmem/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tableJSON mirrors stats.Table's wire form (the Table type itself only
// marshals).
type tableJSON struct {
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// sweepStatusJSON is the client-side view of the sweep envelope.
type sweepStatusJSON struct {
	ID         string     `json:"id"`
	Space      string     `json:"space"`
	Status     string     `json:"status"`
	Objectives []string   `json:"objectives"`
	Total      int        `json:"total"`
	Done       int        `json:"done"`
	Evaluated  int        `json:"evaluated"`
	Cached     int        `json:"cached"`
	Failed     int        `json:"failed"`
	Error      string     `json:"error"`
	Frontier   *tableJSON `json:"frontier"`
	Sens       *tableJSON `json:"sensitivity"`
	Results    *tableJSON `json:"results"`
}

// postSweep submits a sweep request body and decodes the response.
func postSweep(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return resp.StatusCode
}

// waitSweep polls GET /sweeps/{id} until the job settles.
func waitSweep(t *testing.T, url, id string) sweepStatusJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var snap sweepStatusJSON
		code := get(t, url+"/sweeps/"+id, &snap)
		if snap.Status != "running" {
			if code != http.StatusOK && snap.Status != "failed" {
				t.Fatalf("settled sweep returned HTTP %d: %+v", code, snap)
			}
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not settle: %+v", id, snap)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepSubmitAndFetch: POST /sweeps accepts a sampled sweep with 202,
// GET /sweeps/{id} serves progress and, once settled, the frontier,
// sensitivity and results tables.
func TestSweepSubmitAndFetch(t *testing.T) {
	ts, _ := newTestServer(t)
	var accepted sweepStatusJSON
	code := postSweep(t, ts.URL, `{"space":"bus"}`, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if accepted.ID == "" || accepted.Total == 0 {
		t.Fatalf("accept envelope: %+v", accepted)
	}

	snap := waitSweep(t, ts.URL, accepted.ID)
	if snap.Status != "ok" {
		t.Fatalf("sweep settled %q (error %q)", snap.Status, snap.Error)
	}
	if snap.Evaluated != snap.Total || snap.Failed != 0 || snap.Done != snap.Total {
		t.Fatalf("cold sweep counts: %+v", snap)
	}
	if snap.Frontier == nil || len(snap.Frontier.Rows) == 0 {
		t.Fatal("settled sweep has no frontier")
	}
	if snap.Sens == nil || snap.Results == nil {
		t.Fatal("settled sweep missing sensitivity/results tables")
	}
	if len(snap.Results.Rows) != snap.Total {
		t.Fatalf("results table has %d rows, want %d", len(snap.Results.Rows), snap.Total)
	}

	// The shared store makes a re-submitted space incremental: the second
	// sweep of the same space serves every point from cache, and its
	// frontier matches the first byte-for-byte.
	var again sweepStatusJSON
	if code := postSweep(t, ts.URL, `{"space":"bus"}`, &again); code != http.StatusAccepted {
		t.Fatalf("resubmit status %d", code)
	}
	snap2 := waitSweep(t, ts.URL, again.ID)
	if snap2.Status != "ok" || snap2.Evaluated != 0 || snap2.Cached != snap2.Total {
		t.Fatalf("incremental sweep: status=%q evaluated=%d cached=%d total=%d",
			snap2.Status, snap2.Evaluated, snap2.Cached, snap2.Total)
	}
	f1, _ := json.Marshal(snap.Frontier)
	f2, _ := json.Marshal(snap2.Frontier)
	if string(f1) != string(f2) {
		t.Fatal("frontier differs between cold and incremental sweep")
	}

	// Both sweeps show up in the listing, newest first, without tables.
	var listing struct {
		Sweeps []sweepStatusJSON `json:"sweeps"`
	}
	if code := get(t, ts.URL+"/sweeps", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(listing.Sweeps) != 2 || listing.Sweeps[0].ID != again.ID {
		t.Fatalf("listing: %+v", listing.Sweeps)
	}
	if listing.Sweeps[0].Frontier != nil {
		t.Fatal("listing must not carry the heavy tables")
	}
}

// TestSweepListNewestFirst: GET /sweeps lists every accepted sweep,
// newest first, while submissions, listings and lookups run
// concurrently, and GET /sweeps/{id} resolves only the exact IDs it
// handed out.
func TestSweepListNewestFirst(t *testing.T) {
	ts, _ := newTestServer(t)
	const clients, perClient = 4, 9
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"space":"bus","points":1}`))
				if err != nil {
					t.Error(err)
					return
				}
				var accepted sweepStatusJSON
				err = json.NewDecoder(resp.Body).Decode(&accepted)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: status %d, %v", resp.StatusCode, err)
					return
				}
				for _, path := range []string{"/sweeps", "/sweeps/" + accepted.ID} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	const n = clients * perClient
	for i := 1; i <= n; i++ {
		waitSweep(t, ts.URL, fmt.Sprintf("S%d", i))
	}
	var listing struct {
		Sweeps []sweepStatusJSON `json:"sweeps"`
	}
	if code := get(t, ts.URL+"/sweeps", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(listing.Sweeps) != n {
		t.Fatalf("listing has %d sweeps, want %d", len(listing.Sweeps), n)
	}
	for i, s := range listing.Sweeps {
		if want := fmt.Sprintf("S%d", n-i); s.ID != want {
			t.Fatalf("listing[%d] = %q, want %q", i, s.ID, want)
		}
	}
	for _, id := range []string{"S01", "S+1", "S0", "S-1", fmt.Sprintf("S%d", n+1), "1", "s1", "S1x"} {
		var e struct {
			Error string `json:"error"`
		}
		if code := get(t, ts.URL+"/sweeps/"+id, &e); code != http.StatusNotFound {
			t.Fatalf("GET /sweeps/%s: status %d, want 404", id, code)
		}
	}
}

// TestSweepSampledRequest: "points" samples instead of sweeping the grid.
// probeAdapter is a built-in adapter whose Run calls enter first.
type probeAdapter struct {
	sweep.Adapter
	enter func()
}

func (a probeAdapter) Run(p sweep.Point) (sweep.Metrics, error) {
	a.enter()
	return a.Adapter.Run(p)
}

// TestSweepsRunOneAtATime: a second accepted sweep evaluates no point
// until the first has settled, and reports "running" with nothing done
// while it waits, so accepted sweeps never share the CPU.
func TestSweepsRunOneAtATime(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	m := newSweepManager(2, nil)
	accept := func(name string, enter func()) *sweepJob {
		ad, err := sweep.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp := ad.Space()
		pts, err := sp.Sample(4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m.accept(probeAdapter{ad, enter}, sp, sweep.MetricNames(), pts)
	}
	settled := func(j *sweepJob) sweepStatus {
		ch, _ := j.subscribe()
		for range ch {
		}
		return j.snapshot()
	}

	started, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	var once sync.Once
	first := accept("bus", func() {
		once.Do(func() { close(started) })
		<-gate
	})
	var calls atomic.Int64
	second := accept("banks", func() {
		calls.Add(1)
		if s := first.snapshot().Status; s == "running" {
			t.Error("the second sweep evaluated a point while the first was running")
		}
	})

	<-started
	// A second sweep running beside the first would evaluate its points
	// in this window, failing the check in its enter.
	time.Sleep(50 * time.Millisecond)
	if s := second.snapshot(); s.Status != "running" || s.Done != 0 {
		t.Fatalf("waiting sweep reports %q with %d done, want running with 0", s.Status, s.Done)
	}
	release()
	for _, j := range []*sweepJob{first, second} {
		if s := settled(j); s.Status != "ok" || s.Done != 4 {
			t.Fatalf("%s settled %q with %d done, want ok with 4", s.ID, s.Status, s.Done)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("the second sweep never ran")
	}
}

func TestSweepSampledRequest(t *testing.T) {
	ts, _ := newTestServer(t)
	var accepted sweepStatusJSON
	if code := postSweep(t, ts.URL, `{"space":"banks","points":10,"seed":3}`, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if accepted.Total == 0 || accepted.Total > 10 {
		t.Fatalf("sampled sweep total = %d, want 1..10", accepted.Total)
	}
	snap := waitSweep(t, ts.URL, accepted.ID)
	if snap.Status != "ok" {
		t.Fatalf("sampled sweep settled %q (error %q)", snap.Status, snap.Error)
	}
}

// TestSweepBadRequests: malformed bodies, unknown spaces, unknown fields
// and unknown objectives are 400s; unknown IDs are 404s.
func TestSweepBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		``,
		`{`,
		`{"space":"nope"}`,
		`{"space":"bus","bogus":1}`,
		`{"space":"bus","objectives":"nope"}`,
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postSweep(t, ts.URL, body, &e); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, code)
		}
		if e.Error == "" {
			t.Fatalf("body %q: no error message", body)
		}
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := get(t, ts.URL+"/sweeps/S99", &e); code != http.StatusNotFound {
		t.Fatalf("unknown sweep status %d", code)
	}
}

// TestSweepSpaces: the catalogue endpoint lists every registered space
// with axes and grid sizes.
func TestSweepSpaces(t *testing.T) {
	ts, _ := newTestServer(t)
	var body struct {
		Spaces []struct {
			Name       string `json:"name"`
			GridPoints int    `json:"grid_points"`
			Axes       []struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"axes"`
		} `json:"spaces"`
	}
	if code := get(t, ts.URL+"/sweeps/spaces", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	names := map[string]bool{}
	for _, sp := range body.Spaces {
		names[sp.Name] = true
		if sp.GridPoints == 0 || len(sp.Axes) == 0 {
			t.Fatalf("space %s: empty catalogue entry", sp.Name)
		}
	}
	for _, want := range []string{"banks", "cache", "bus", "memhier"} {
		if !names[want] {
			t.Fatalf("catalogue misses %q: %v", want, names)
		}
	}
}

// TestSweepSpacesGolden: the GET /sweeps/spaces body must match the
// checked-in catalogue byte-for-byte. Regenerate with `go test
// ./internal/httpapi -run SpacesGolden -update` only after a deliberate
// change to a space.
func TestSweepSpacesGolden(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/sweeps/spaces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sweep_spaces.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/sweeps/spaces mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
