package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks output against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// reportUnits are the human-readable report lines each workload prints
// on standard error, by metric name and unit.
var reportUnits = map[string][][2]string{
	"suite": {{"suite_s", "s"}},
	"sweep": {{"points_per_s", "points/s"}, {"resume_ms", "ms"}},
	"serve": {{"cold_fill_s", "s"}, {"rps", "req/s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}},
}

// benchBinary builds the benchmark once per test binary.
func benchBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	bin := filepath.Join(t.TempDir(), "lpmem-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs one workload at its smallest size (one repetition) and
// returns the exit code, the parsed result line and the report.
func runBench(t *testing.T, bin, workload, trace, golden string) (int, result, string) {
	t.Helper()
	cmd := exec.Command(bin, "--workload", workload, "--seed", "1", "--seconds", "0",
		"--trace", trace, "--golden", golden, "--out", t.TempDir())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last stdout line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, &stdout, &stderr)
	}
	return code, res, stderr.String()
}

// wantMetrics checks that the result carries exactly the named metrics,
// each with its unit.
func wantMetrics(t *testing.T, what string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", what, m.Name, got, m.Unit)
		}
	}
}

// wantReport checks that the report prints a metric with its unit.
func wantReport(t *testing.T, what, report, name, unit string) {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` [-+0-9.e]+ ` + regexp.QuoteMeta(unit) + `\b`)
	if !re.MatchString(report) {
		t.Errorf("%s: report lacks %q in %s:\n%s", what, name, unit, report)
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bin := benchBinary(t)
	sp := loadSpec(t)
	golden := filepath.Join("..", "testdata", "golden")
	for _, w := range []string{"suite", "sweep", "serve"} {
		code, res, report := runBench(t, bin, w, "0", golden)
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %d, result %+v\n%s", w, code, res, report)
		}
		wantMetrics(t, w, res, sp.EndToEnd)
		for _, m := range append(reportUnits[w], [2]string{"setup_s", "s"}, [2]string{"failed_ratio", "fraction"}, [2]string{"peak_rss_mb", "MiB"}) {
			wantReport(t, w, report, m[0], m[1])
		}
	}

	code, res, report := runBench(t, bin, "sweep", "1", golden)
	if code != 0 || !res.Correct {
		t.Errorf("traced: exit %d, result correct=%v failed=%d\n%s", code, res.Correct, res.Failed, report)
	}
	wantMetrics(t, "traced", res, sp.PerLayer)
}

func TestCorruptGoldenFails(t *testing.T) {
	bin := benchBinary(t)
	dir := t.TempDir()
	src := filepath.Join("..", "testdata", "golden")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "E16.json" {
			raw = bytes.Replace(raw, []byte(`"summary": "`), []byte(`"summary": "corrupted `), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, res, report := runBench(t, bin, "suite", "0", dir)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted golden: exit %d, result %+v\n%s", code, res, report)
	}
	if !strings.Contains(report, "FAIL suite E16") {
		t.Errorf("report does not name the corrupted experiment:\n%s", report)
	}
	wantReport(t, "corrupted", report, "failed_ratio", "fraction")
}
