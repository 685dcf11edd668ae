package lpmem

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"

	"lpmem/internal/runner"
)

// TestJobsCacheKeys: every registry job carries a cache key that couples
// the experiment ID to the registry version.
func TestJobsCacheKeys(t *testing.T) {
	jobs := Jobs(Experiments())
	if len(jobs) != len(Experiments()) {
		t.Fatalf("%d jobs for %d experiments", len(jobs), len(Experiments()))
	}
	for _, j := range jobs {
		if j.Key != CacheKey(j.ID) || !strings.Contains(j.Key, RegistryVersion) {
			t.Fatalf("job %s has key %q", j.ID, j.Key)
		}
	}
}

// TestRegistryVersionDigest: the version tracks every byte of the
// goldens and nothing about the order their files were written in.
func TestRegistryVersionDigest(t *testing.T) {
	files := []string{"testdata/golden/E1.json", "testdata/golden/E2.json", "testdata/golden/E10.json"}
	build := func(order []int, edit func(name string, b []byte) []byte) fstest.MapFS {
		fsys := fstest.MapFS{}
		for _, i := range order {
			b := []byte(fmt.Sprintf(`{"id":"E%d","rows":[["a","1.00"]]}`, i))
			fsys[files[i]] = &fstest.MapFile{Data: edit(files[i], b)}
		}
		return fsys
	}
	same := func(_ string, b []byte) []byte { return b }
	base := registryVersion(build([]int{0, 1, 2}, same))
	if len(base) != 16 {
		t.Fatalf("version %q is not 16 hex digits", base)
	}
	if v := registryVersion(build([]int{2, 0, 1}, same)); v != base {
		t.Fatalf("file order moved the version: %s vs %s", v, base)
	}
	flip := func(name string, b []byte) []byte {
		if name == files[1] {
			b[len(b)-3] ^= 1
		}
		return b
	}
	if v := registryVersion(build([]int{0, 1, 2}, flip)); v == base {
		t.Fatal("a changed golden byte left the version unchanged")
	}
	if RegistryVersion == registryVersion(fstest.MapFS{}) {
		t.Fatal("RegistryVersion digests no goldens")
	}
}

// TestResultJSONRoundTrip: every golden table, rebuilt from its
// envelope into a result, flattens back to the same envelope.
func TestResultJSONRoundTrip(t *testing.T) {
	names, err := fs.Glob(goldens, "testdata/golden/*.json")
	if err != nil || len(names) != len(Experiments()) {
		t.Fatalf("%d goldens (%v) for %d experiments", len(names), err, len(Experiments()))
	}
	for _, name := range names {
		b, err := fs.ReadFile(goldens, name)
		if err != nil {
			t.Fatal(err)
		}
		var env ResultJSON
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exp := Experiment{ID: env.ID, Title: env.Title, PaperClaim: env.PaperClaim}
		back := Report{Experiment: exp, Outcome: runner.Outcome[*Result]{Value: env.Result()}}.JSON()
		if !reflect.DeepEqual(back, env) {
			t.Fatalf("%s: round trip changed the envelope:\n%+v\n%+v", name, env, back)
		}
	}
}

// TestRunBatchEnvelope: one real experiment through the engine produces
// a complete JSON envelope, and a second run is a cache hit with the
// identical table.
func TestRunBatchEnvelope(t *testing.T) {
	eng := NewEngine(runner.Options{Workers: 2})
	exp, err := ByID("E16")
	if err != nil {
		t.Fatal(err)
	}
	first := RunBatch(context.Background(), eng, []Experiment{exp})
	if len(first) != 1 || first[0].Outcome.Err != nil {
		t.Fatalf("run failed: %+v", first)
	}
	env := first[0].JSON()
	if env.ID != "E16" || env.Title == "" || env.PaperClaim == "" {
		t.Fatalf("envelope header incomplete: %+v", env)
	}
	if env.Summary == "" || len(env.Header) == 0 || len(env.Rows) == 0 {
		t.Fatalf("envelope body incomplete: %+v", env)
	}
	if env.Cached || env.Error != "" {
		t.Fatalf("first run must be fresh and clean: %+v", env)
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"E16"`, `"paper_claim"`, `"rows"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("marshalled envelope missing %s: %s", want, b)
		}
	}

	second := RunBatch(context.Background(), eng, []Experiment{exp})
	if !second[0].Outcome.Cached {
		t.Fatal("second run must be served from cache")
	}
	if second[0].Outcome.Value.Table.String() != first[0].Outcome.Value.Table.String() {
		t.Fatal("cached table differs from the original")
	}
	m := eng.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Executed != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestResultMarshalJSON: a raw Result marshals with the table expanded
// via stats.Table.MarshalJSON rather than as an opaque struct.
func TestResultMarshalJSON(t *testing.T) {
	exp, err := ByID("E16")
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"header"`) || !strings.Contains(string(b), `"rows"`) {
		t.Fatalf("Result JSON missing table content: %.200s", b)
	}
}

// TestParallelDeterminism runs the full registry twice through the
// parallel runner (cache disabled) and asserts byte-identical rendered
// tables per experiment. This guards the seeded-rand convention in
// DESIGN.md against shared-state regressions now that experiments run
// concurrently.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry x2 is heavy; skipped in -short mode")
	}
	eng := NewEngine(runner.Options{Workers: 4, NoCache: true})
	snapshot := func() map[string]string {
		out := make(map[string]string)
		for _, r := range RunBatch(context.Background(), eng, Experiments()) {
			if r.Outcome.Err != nil {
				t.Fatalf("%s: %v", r.Experiment.ID, r.Outcome.Err)
			}
			out[r.Experiment.ID] = r.Outcome.Value.Table.String() + "\n" + r.Outcome.Value.Summary
		}
		return out
	}
	a := snapshot()
	b := snapshot()
	for id, tbl := range a {
		if b[id] != tbl {
			t.Errorf("%s: parallel runs disagree\nfirst:\n%s\nsecond:\n%s", id, tbl, b[id])
		}
	}
}
