package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepJSONGolden: `lpmem sweep -json` over the bus space (the
// smallest full grid) must match the checked-in golden envelope
// byte-for-byte — the sweep envelope deliberately carries no wall-clock
// field, so no normalization is needed. Regenerate with
// `go test ./cmd/lpmem -run Golden -update` after a deliberate model
// change.
func TestSweepJSONGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runSweep([]string{"-space", "bus", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.Bytes()

	golden := filepath.Join("testdata", "sweep_bus.json")
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
		t.Fatalf("sweep golden mismatch (run with -update after a deliberate change)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The envelope must also be structurally valid.
	var env struct {
		Space      string   `json:"space"`
		Objectives []string `json:"objectives"`
		Total      int      `json:"total"`
		Evaluated  int      `json:"evaluated"`
		Failed     int      `json:"failed"`
		Frontier   struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(got, &env); err != nil {
		t.Fatal(err)
	}
	if env.Space != "bus" || env.Total == 0 || env.Failed != 0 {
		t.Fatalf("envelope: %+v", env)
	}
	if len(env.Frontier.Rows) == 0 {
		t.Fatal("empty frontier")
	}
	if env.Evaluated != env.Total {
		t.Fatalf("storeless sweep evaluated %d of %d", env.Evaluated, env.Total)
	}
}

// TestSweepResumeByteIdentical is the acceptance criterion end-to-end:
// a fresh sweep against an empty store, then a second run against the
// same store, must re-execute zero points and print a byte-identical
// frontier table.
func TestSweepResumeByteIdentical(t *testing.T) {
	store := filepath.Join(t.TempDir(), "sweep.jsonl")
	runOnce := func() (string, string) {
		var out, errOut bytes.Buffer
		if code := runSweep([]string{"-space", "bus", "-resume", store, "-pareto"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	front1, summary1 := runOnce()
	front2, summary2 := runOnce()
	if front1 != front2 {
		t.Fatalf("resume frontier differs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", front1, front2)
	}
	if !strings.Contains(summary1, "cached 0") {
		t.Fatalf("first run should start cold: %s", summary1)
	}
	if !strings.Contains(summary2, "evaluated 0") {
		t.Fatalf("second run re-executed points: %s", summary2)
	}
}

// TestSweepSampled: -points samples the space instead of sweeping the
// grid, deterministically per seed.
func TestSweepSampled(t *testing.T) {
	run := func(seed string) string {
		var out, errOut bytes.Buffer
		if code := runSweep([]string{"-space", "banks", "-points", "20", "-seed", seed, "-json"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}
	a, b := run("5"), run("5")
	if a != b {
		t.Fatal("same-seed sampled sweeps differ")
	}
	var env struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal([]byte(a), &env); err != nil {
		t.Fatal(err)
	}
	if env.Total == 0 || env.Total > 20 {
		t.Fatalf("sampled sweep total = %d, want 1..20", env.Total)
	}
}

// TestSweepListGolden: `lpmem sweep -list` must match the checked-in
// listing byte-for-byte. Regenerate with `go test ./cmd/lpmem -run
// Golden -update` only after a deliberate change to a space.
func TestSweepListGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runSweep([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	golden := filepath.Join("testdata", "sweep_list.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("sweep -list mismatch\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

// TestSweepListAndErrors: -list enumerates the spaces; bad flags and
// unknown spaces exit 2.
func TestSweepListAndErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runSweep([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, want := range []string{"banks", "cache", "bus", "memhier", "memtech", "nuca"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output misses %q:\n%s", want, out.String())
		}
	}
	if code := runSweep([]string{"-space", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown space exit %d", code)
	}
	if code := runSweep([]string{"-objectives", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown objective exit %d", code)
	}
	if code := runSweep([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit %d", code)
	}
}
