package sweep

import (
	"context"
	"errors"
	"maps"
	"path/filepath"
	"testing"

	"lpmem/internal/faultinject"
)

// fakeAdapter is a cheap deterministic substrate for executor tests:
// metrics are a pure function of the point coordinates.
type fakeAdapter struct{}

func (fakeAdapter) Name() string     { return "fake" }
func (fakeAdapter) Describe() string { return "test substrate" }
func (fakeAdapter) Space() Space {
	return Space{Axes: []Axis{
		{Name: "i", Kind: IntAxis, Min: 0, Max: 9},
		{Name: "j", Kind: IntAxis, Min: 0, Max: 4},
	}}
}

func (fakeAdapter) Run(p Point) (Metrics, error) {
	i, j := p.Int("i"), p.Int("j")
	return Metrics{
		EnergyPJ: float64((i*7 + j*3) % 13),
		Latency:  float64((i + j*5) % 11),
		Area:     float64(1 + i + j),
	}, nil
}

func fakePoints(t *testing.T) []Point {
	t.Helper()
	pts, err := fakeAdapter{}.Space().Grid()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestRunFreshThenResume(t *testing.T) {
	ad := fakeAdapter{}
	pts := fakePoints(t)
	path := filepath.Join(t.TempDir(), "store.jsonl")

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(context.Background(), ad, pts, Config{Workers: 4, BatchSize: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if res1.Evaluated != len(pts) || res1.Cached != 0 || res1.Failed != 0 {
		t.Fatalf("fresh run: evaluated=%d cached=%d failed=%d, want %d/0/0",
			res1.Evaluated, res1.Cached, res1.Failed, len(pts))
	}

	// Resume against the warm store: zero re-executions.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res2, err := Run(context.Background(), ad, pts, Config{Workers: 4, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Evaluated != 0 || res2.Cached != len(pts) || res2.Failed != 0 {
		t.Fatalf("resume run: evaluated=%d cached=%d failed=%d, want 0/%d/0",
			res2.Evaluated, res2.Cached, res2.Failed, len(pts))
	}

	// Outcome order and metrics are identical across the two runs, and
	// the frontier tables are byte-identical (the CI resume gate).
	objs := MetricNames()
	axes := ad.Space().Axes
	for i := range res1.Outcomes {
		if res1.Outcomes[i].Point.Canonical() != res2.Outcomes[i].Point.Canonical() {
			t.Fatalf("outcome %d: point order differs across runs", i)
		}
		if res1.Outcomes[i].Metrics != res2.Outcomes[i].Metrics {
			t.Fatalf("outcome %d: metrics differ across runs", i)
		}
	}
	ft1 := FrontierTable(axes, Frontier(res1.Outcomes, objs), objs)
	ft2 := FrontierTable(axes, Frontier(res2.Outcomes, objs), objs)
	if ft1.String() != ft2.String() {
		t.Fatalf("frontier differs between fresh and resumed run:\n%s\nvs\n%s", ft1, ft2)
	}
}

func TestRunValidatesAndDedupes(t *testing.T) {
	ad := fakeAdapter{}
	if _, err := Run(context.Background(), ad, []Point{{"i": IntValue(99), "j": IntValue(0)}}, Config{}); err == nil {
		t.Fatal("Run accepted an out-of-space point")
	}
	p := Point{"i": IntValue(1), "j": IntValue(2)}
	res, err := Run(context.Background(), ad, []Point{p, maps.Clone(p), maps.Clone(p)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1 || res.Evaluated != 1 {
		t.Fatalf("duplicates not collapsed: total=%d evaluated=%d", res.Total, res.Evaluated)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, fakeAdapter{}, fakePoints(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != res.Total {
		t.Fatalf("cancelled run: failed=%d, want all %d", res.Failed, res.Total)
	}
	for _, o := range res.Outcomes {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("cancelled point error = %v, want context.Canceled", o.Err)
		}
	}
}

func TestRunProgressStream(t *testing.T) {
	pts := fakePoints(t)
	path := filepath.Join(t.TempDir(), "store.jsonl")
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var progress []Progress
	res, err := Run(context.Background(), fakeAdapter{}, pts, Config{
		BatchSize: 8,
		Store:     st,
		OnProgress: func(p Progress) {
			progress = append(progress, p)
			// Progress never outruns the store: a peer opening the file
			// now finds every point of the batches reported so far (no
			// point fails, and pts is in canonical order).
			peer, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if peer.Len() != p.Done {
				t.Fatalf("batch %d reported %d points done, the store holds %d", p.Batch, p.Done, peer.Len())
			}
			for _, q := range pts[:p.Done] {
				if _, ok := peer.Get(Key("fake", StoreVersion, q.Canonical())); !ok {
					t.Fatalf("batch %d reported before %s reached the store", p.Batch, q.Canonical())
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) == 0 {
		t.Fatal("no progress reports")
	}
	last := 0
	for i, p := range progress {
		if p.Done < last {
			t.Fatalf("progress %d: Done went backwards (%d after %d)", i, p.Done, last)
		}
		last = p.Done
		if p.Total != res.Total {
			t.Fatalf("progress %d: total=%d, want %d", i, p.Total, res.Total)
		}
	}
	if last != res.Total {
		t.Fatalf("final progress Done=%d, want %d", last, res.Total)
	}
	if got := len(progress); got != progress[0].Batches {
		t.Fatalf("got %d progress reports for %d batches", got, progress[0].Batches)
	}
}

// TestSweepRecoversFromInjectedFaults is the fault-injection satellite:
// wrap the batch jobs with faultinject.Wrap so a deterministic subset of
// points dies mid-sweep (the moral equivalent of a killed process), then
// prove the partial store plus a clean resume recover the full sweep with
// a frontier identical to a never-faulted run.
func TestSweepRecoversFromInjectedFaults(t *testing.T) {
	ad := fakeAdapter{}
	pts := fakePoints(t)
	path := filepath.Join(t.TempDir(), "store.jsonl")

	// Clean reference run, no store, no faults.
	ref, err := Run(context.Background(), ad, pts, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	objs := MetricNames()
	refFront := FrontierTable(ad.Space().Axes, Frontier(ref.Outcomes, objs), objs)

	// Faulted run: half the points die (transient errors and panics that
	// never heal within the run). Successes still land in the store.
	inj := faultinject.New(faultinject.Plan{
		Seed:          7,
		Rate:          0.5,
		Kinds:         []faultinject.Kind{faultinject.Transient, faultinject.Panic},
		FaultAttempts: 1 << 20, // never heals: every attempt of a faulted key fails
	})
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(context.Background(), ad, pts, Config{
		Workers: 4, BatchSize: 8, Store: st,
		WrapJob: func(key string, run func(ctx context.Context) (Metrics, error)) func(ctx context.Context) (Metrics, error) {
			return faultinject.Wrap(inj, key, run, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if res1.Failed == 0 {
		t.Fatal("fault plan injected nothing; the recovery test is vacuous")
	}
	if res1.Evaluated == 0 {
		t.Fatal("every point died; the partial-store property is vacuous")
	}
	if res1.Evaluated+res1.Failed != res1.Total {
		t.Fatalf("faulted run counts: evaluated=%d failed=%d total=%d",
			res1.Evaluated, res1.Failed, res1.Total)
	}

	// The store holds exactly the survivors.
	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != res1.Evaluated {
		t.Fatalf("store holds %d records, want the %d survivors", st2.Len(), res1.Evaluated)
	}

	// Clean resume: only the faulted points re-execute, and the recovered
	// sweep matches the never-faulted reference exactly.
	res2, err := Run(context.Background(), ad, pts, Config{Workers: 4, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Failed != 0 {
		t.Fatalf("resume still failing: %d points", res2.Failed)
	}
	if res2.Cached != res1.Evaluated || res2.Evaluated != res1.Failed {
		t.Fatalf("resume: cached=%d evaluated=%d, want %d/%d",
			res2.Cached, res2.Evaluated, res1.Evaluated, res1.Failed)
	}
	for i := range ref.Outcomes {
		if ref.Outcomes[i].Metrics != res2.Outcomes[i].Metrics {
			t.Fatalf("outcome %d: recovered metrics differ from the clean run", i)
		}
	}
	front2 := FrontierTable(ad.Space().Axes, Frontier(res2.Outcomes, objs), objs)
	if refFront.String() != front2.String() {
		t.Fatalf("recovered frontier differs from the clean run:\n%s\nvs\n%s", refFront, front2)
	}
}

func TestAdaptersRunOnePoint(t *testing.T) {
	// Every built-in adapter must evaluate the first point of its own
	// grid without error and produce positive metrics.
	for _, ad := range Adapters() {
		pts, err := ad.Space().Grid()
		if err != nil {
			t.Fatalf("%s: %v", ad.Name(), err)
		}
		m, err := ad.Run(pts[0])
		if err != nil {
			t.Fatalf("%s: Run(%s): %v", ad.Name(), pts[0].Canonical(), err)
		}
		if m.EnergyPJ <= 0 || m.Latency <= 0 || m.Area <= 0 {
			t.Fatalf("%s: non-positive metrics %+v for %s", ad.Name(), m, pts[0].Canonical())
		}
		// Determinism: a second evaluation is bit-identical.
		m2, err := ad.Run(pts[0])
		if err != nil {
			t.Fatal(err)
		}
		if m != m2 {
			t.Fatalf("%s: Run is nondeterministic: %+v vs %+v", ad.Name(), m, m2)
		}
	}
}
