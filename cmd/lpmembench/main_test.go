package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpmem/internal/regress"
)

// fastArgs restricts runs to the two cheapest experiments with a single
// iteration so the end-to-end tests stay quick.
func fastArgs(dir string, extra ...string) []string {
	args := []string{
		"-filter", "E4,E17",
		"-iterations", "1",
		"-baseline", filepath.Join(dir, "bench.json"),
		"-golden", filepath.Join(dir, "golden"),
	}
	return append(args, extra...)
}

// TestRecordThenCheck: a fresh record must immediately pass its own
// check, and the artifacts must land on disk.
func TestRecordThenCheck(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"golden/E4.json", "golden/E17.json", "bench.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("record did not produce %s: %v", want, err)
		}
	}
	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 0 {
		t.Fatalf("check after record exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "match goldens and perf baseline (scale") ||
		!strings.Contains(out.String(), "ms recorded)") {
		t.Fatalf("check output: %s", out.String())
	}
}

// TestRecordNewBaselineKeepsDefaultLog: recording into a baseline file
// that does not exist yet starts from the optimization log of the
// default baseline, so moving to a new BENCH file keeps the log.
func TestRecordNewBaselineKeepsDefaultLog(t *testing.T) {
	dir := t.TempDir()
	entry := regress.Optimization{
		Target:      "internal/example",
		Description: "an earlier recorded win",
		Before:      map[string]int64{"E4": 2_000_000},
		After:       map[string]int64{"E4": 1_000_000},
	}
	def := &regress.Baseline{Optimizations: []regress.Optimization{entry}}
	if err := regress.WriteBaseline(filepath.Join(dir, defaultBaseline), def); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	args := []string{"-record", "-filter", "E4,E17", "-iterations", "1",
		"-baseline", "new.json", "-golden", "golden"}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	got, err := regress.ReadBaseline("new.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Optimizations) != 1 || got.Optimizations[0].Target != entry.Target ||
		got.Optimizations[0].After["E4"] != entry.After["E4"] {
		t.Fatalf("new baseline log = %+v, want the default baseline's %+v", got.Optimizations, def.Optimizations)
	}
	if len(got.Experiments) != 2 {
		t.Fatalf("new baseline records %d experiments, want 2", len(got.Experiments))
	}
}

// TestFilteredRecordKeepsCalibration: re-recording part of the registry
// into an existing baseline leaves the file's calibration and every other
// experiment's entry as they were, and replaces the selected entry.
func TestFilteredRecordKeepsCalibration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	const calibration = 12_345_678
	prev := &regress.Baseline{
		CalibrationNS: calibration,
		Experiments: []regress.ExperimentBaseline{
			{ID: "E1", WallNS: 111, Allocs: 1, Bytes: 10, Headline: "kept"},
			{ID: "E4", WallNS: 444, Allocs: 4, Bytes: 40, Headline: "kept"},
			{ID: "E17", WallNS: 1_717, Allocs: 17, Bytes: 170, Headline: "replaced"},
		},
	}
	if err := regress.WriteBaseline(path, prev); err != nil {
		t.Fatal(err)
	}
	args := []string{"-record", "-filter", "E17", "-iterations", "1",
		"-baseline", path, "-golden", filepath.Join(dir, "golden")}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	got, err := regress.ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CalibrationNS != calibration {
		t.Fatalf("calibration_ns %d after a filtered record, want the file's %d", got.CalibrationNS, calibration)
	}
	for _, id := range []string{"E1", "E4"} {
		want, _ := prev.ByID(id)
		if eb, ok := got.ByID(id); !ok || eb != want {
			t.Fatalf("%s entry %+v after a filtered record, want %+v", id, eb, want)
		}
	}
	if eb, ok := got.ByID("E17"); !ok || eb.Headline == "replaced" || eb.WallNS <= 0 {
		t.Fatalf("E17 entry %+v was not re-recorded", eb)
	}
}

// TestCheckDetectsTableDrift: corrupting a committed golden row makes
// the check exit non-zero and name the drift.
func TestCheckDetectsTableDrift(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	path := filepath.Join(dir, "golden", "E17.json")
	var snap regress.Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Rows[0][len(snap.Rows[0])-1] = "corrupted"
	if err := regress.WriteGolden(filepath.Join(dir, "golden"), snap); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 1 {
		t.Fatalf("check with corrupt golden exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "E17") || !strings.Contains(errOut.String(), "rows") {
		t.Fatalf("drift report: %s", errOut.String())
	}
}

// TestCheckJSONReport: -json emits a structured report whose OK flag
// matches the exit code.
func TestCheckJSONReport(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-record", "-json"), &out, &errOut); code != 0 {
		t.Fatalf("record exit %d, stderr: %s", code, errOut.String())
	}
	var rec report
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("record -json: %v\n%s", err, out.String())
	}
	if !rec.OK || rec.Mode != "record" || len(rec.Measurements) != 2 {
		t.Fatalf("record report: %+v", rec)
	}

	out.Reset()
	errOut.Reset()
	if code := run(append(fastArgs(dir), "-check", "-json"), &out, &errOut); code != 0 {
		t.Fatalf("check exit %d, stderr: %s", code, errOut.String())
	}
	var chk report
	if err := json.Unmarshal(out.Bytes(), &chk); err != nil {
		t.Fatalf("check -json: %v\n%s", err, out.String())
	}
	if !chk.OK || chk.Mode != "check" || len(chk.Drifts) != 0 || len(chk.Measurements) != 2 {
		t.Fatalf("check report: %+v", chk)
	}
	// The report carries both calibrations behind its scale, so a CI
	// artifact shows which calibration regime a run landed in.
	base, err := regress.ReadBaseline(filepath.Join(dir, "bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if chk.RecordedCalibrationNS != base.CalibrationNS || chk.LiveCalibrationNS <= 0 ||
		chk.Scale != regress.Scale(chk.RecordedCalibrationNS, chk.LiveCalibrationNS) {
		t.Fatalf("check report calibration: scale %v, live %d ns, recorded %d ns, baseline file %d ns",
			chk.Scale, chk.LiveCalibrationNS, chk.RecordedCalibrationNS, base.CalibrationNS)
	}
}

// TestCheckMissingBaseline: checking without committed artifacts fails
// with a diagnostic rather than succeeding vacuously.
func TestCheckMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(append(fastArgs(dir), "-check"), &out, &errOut); code != 1 {
		t.Fatalf("check without baseline exit %d, want 1", code)
	}
}

// TestUsageErrors: flag misuse exits 2.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                              // neither mode
		{"-record", "-check"},           // both modes
		{"-check", "stray"},             // positional args
		{"-record", "-filter", "E99"},   // unknown experiment
		{"-record", "-filter", " , , "}, // empty selection
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
