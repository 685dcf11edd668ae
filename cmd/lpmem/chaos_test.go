package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// chaosJSON mirrors the -json report shape the test asserts on.
type chaosJSON struct {
	Sweeps []struct {
		Failed         int               `json:"failed"`
		GoroutineDelta int               `json:"goroutine_delta"`
		FaultCounts    map[string]uint64 `json:"fault_counts"`
		Experiments    []struct {
			ID       string `json:"id"`
			Fault    string `json:"fault"`
			Attempts int    `json:"attempts"`
			Error    string `json:"error,omitempty"`
		} `json:"experiments"`
		Violations []string `json:"violations,omitempty"`
	} `json:"sweeps"`
	Violations []string `json:"violations,omitempty"`
}

// TestChaosSubsetDeterministic: a seeded sweep over fast experiments
// exits 0, reports zero violations and leaks, and places at least one
// fault at rate 1.
func TestChaosSubsetDeterministic(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"chaos", "-seed", "1", "-rate", "1", "-runs", "2", "-json",
		"-maxdelay", "5ms", "E12", "E16", "E13", "E5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	// stdout is exactly one JSON document (Unmarshal rejects trailing
	// data); the OK line goes to stderr.
	var rep chaosJSON
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(errOut.String(), "chaos OK: ") {
		t.Fatalf("stderr %q, want the chaos OK line", errOut.String())
	}
	if len(rep.Sweeps) != 2 || len(rep.Violations) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	for i, s := range rep.Sweeps {
		if len(s.Violations) != 0 || s.GoroutineDelta != 0 {
			t.Fatalf("sweep %d: %+v", i, s)
		}
		if len(s.Experiments) != 4 {
			t.Fatalf("sweep %d rows: %+v", i, s.Experiments)
		}
		var faulted int
		for _, e := range s.Experiments {
			if e.Fault != "none" {
				faulted++
			}
		}
		if faulted != 4 {
			t.Fatalf("sweep %d: rate 1 faulted only %d of 4", i, faulted)
		}
	}
	// Determinism: both sweeps agree row-by-row on fault and attempts.
	for i := range rep.Sweeps[0].Experiments {
		a, b := rep.Sweeps[0].Experiments[i], rep.Sweeps[1].Experiments[i]
		if a.ID != b.ID || a.Fault != b.Fault || a.Attempts != b.Attempts {
			t.Fatalf("sweeps diverge at row %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestChaosSeedMovesFaults: different seeds produce different placements
// over the same experiment set.
func TestChaosSeedMovesFaults(t *testing.T) {
	placements := func(seed string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"chaos", "-seed", seed, "-rate", "0.5", "-runs", "1", "-json",
			"-maxdelay", "2ms", "E12", "E16", "E13", "E5", "E6", "E15"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("seed %s exit %d: %s", seed, code, errOut.String())
		}
		var rep chaosJSON
		if err := json.NewDecoder(bytes.NewReader(out.Bytes())).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, e := range rep.Sweeps[0].Experiments {
			sb.WriteString(e.ID + "=" + e.Fault + ";")
		}
		return sb.String()
	}
	if placements("1") == placements("7") {
		t.Fatal("seeds 1 and 7 produced identical fault placement")
	}
}

// TestChaosUsageErrors: bad plans and rates exit 2.
func TestChaosUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"chaos", "-plan", "meteor"}, &out, &errOut); code != 2 {
		t.Fatalf("bad plan exit %d", code)
	}
	if !strings.Contains(errOut.String(), "unknown fault kind") {
		t.Fatalf("stderr: %s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"chaos", "-rate", "1.5"}, &out, &errOut); code != 2 {
		t.Fatalf("bad rate exit %d", code)
	}
	if code := run([]string{"chaos", "E99"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown id exit %d", code)
	}
}
