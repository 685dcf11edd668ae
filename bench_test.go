package lpmem

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lpmem/internal/runner"
)

// benchEngineOnce hoists the engine shared by every per-experiment
// benchmark: constructing one per benchmark both skewed small benchmarks
// with setup cost and left each run with its own (empty) metrics, hiding
// whether the no-cache contract actually held.
var benchEngineOnce = sync.OnceValue(func() *Engine {
	return NewEngine(runner.Options{Workers: 1, NoCache: true})
})

// benchExperiment runs one registry experiment under testing.B, routed
// through the shared runner engine (cache disabled so every iteration
// measures the full pipeline: workload execution, optimization,
// evaluation). After the loop it asserts the engine served nothing from
// cache — a benchmark that silently measured cached runs would report
// nonsense numbers. The first iteration logs the regenerated table so
// `go test -bench -v` reproduces the paper's numbers.
func benchExperiment(b *testing.B, id string) {
	exp, err := ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	eng := benchEngineOnce()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports := RunBatch(ctx, eng, []Experiment{exp})
		if err := reports[0].Outcome.Err; err != nil {
			b.Fatal(err)
		}
		if reports[0].Outcome.Cached {
			b.Fatalf("%s iteration %d served from cache; benchmarks must measure real runs", id, i)
		}
		if i == 0 {
			res := reports[0].Outcome.Value
			b.Logf("%s — %s\npaper claim: %s\n%s\n%s",
				exp.ID, exp.Title, exp.PaperClaim, res.Table.String(), res.Summary)
		}
	}
	b.StopTimer()
	if hits := eng.Metrics().CacheHits; hits != 0 {
		b.Fatalf("bench engine recorded %d cache hits; the no-cache contract is broken", hits)
	}
}

// BenchmarkRunnerAll compares a sequential full-registry run against the
// parallel worker pool; the ratio of the two is the engine's speedup and
// is tracked as part of the perf trajectory. The cache is disabled so
// both variants execute every registered experiment every iteration.
func BenchmarkRunnerAll(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := NewEngine(runner.Options{Workers: bc.workers, NoCache: true})
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				for _, r := range RunBatch(ctx, eng, Experiments()) {
					if r.Outcome.Err != nil {
						b.Fatalf("%s: %v", r.Experiment.ID, r.Outcome.Err)
					}
					if r.Outcome.Cached {
						b.Fatalf("%s served from cache in a no-cache benchmark", r.Experiment.ID)
					}
				}
			}
			b.StopTimer()
			if hits := eng.Metrics().CacheHits; hits != 0 {
				b.Fatalf("engine recorded %d cache hits; the no-cache contract is broken", hits)
			}
		})
	}
}

// BenchmarkE1AddressClustering regenerates DATE'03 1B.1's energy table.
func BenchmarkE1AddressClustering(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2DataCompression regenerates DATE'03 1B.2's energy table.
func BenchmarkE2DataCompression(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3IMemEncoding regenerates DATE'03 1B.3's transition table.
func BenchmarkE3IMemEncoding(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4ReconfigSchedule regenerates DATE'03 1B.4's breakdown.
func BenchmarkE4ReconfigSchedule(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5ShieldedBus regenerates DATE'03 6F.3's comparison.
func BenchmarkE5ShieldedBus(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Chromatic regenerates DATE'03 8B.3's transition table.
func BenchmarkE6Chromatic(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7WayDetermination regenerates DATE'03 10E.4's power table.
func BenchmarkE7WayDetermination(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8LayerAssignment regenerates DATE'03 10F.1's energy table.
func BenchmarkE8LayerAssignment(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9StackMemory regenerates DATE'03 10F.3's cache-energy table.
func BenchmarkE9StackMemory(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10NoCMapping regenerates DATE'03 8B.2's mapping table.
func BenchmarkE10NoCMapping(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11CtgDvs regenerates DATE'03 2B.2's DVS table.
func BenchmarkE11CtgDvs(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12MRPFilter regenerates DATE'03 8B.4's adder-count table.
func BenchmarkE12MRPFilter(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13DESMasking regenerates DATE'03 2B.1's masking comparison.
func BenchmarkE13DESMasking(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14ClockTree regenerates DATE'03 1F.4's uncertainty table.
func BenchmarkE14ClockTree(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15TimingBounds regenerates DATE'03 1F.3's bounds validation.
func BenchmarkE15TimingBounds(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16BDDMinimization regenerates DATE'03 8D.2's effort table.
func BenchmarkE16BDDMinimization(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17PipelinedCache regenerates DATE'03 8E.1's MOPS table.
func BenchmarkE17PipelinedCache(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18TestCompression regenerates DATE'03 2C's compression tables.
func BenchmarkE18TestCompression(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19CacheDesign regenerates DATE'03 8A.1's exploration table.
func BenchmarkE19CacheDesign(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Checkpointing regenerates DATE'03 9E.3's fault-tolerance table.
func BenchmarkE20Checkpointing(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21CellTypes regenerates the cell-type energy inversion table.
func BenchmarkE21CellTypes(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22PowerGating regenerates the gating break-even table.
func BenchmarkE22PowerGating(b *testing.B) { benchExperiment(b, "E22") }

// BenchmarkE23DRAMBanking regenerates the DRAM row-buffer locality table.
func BenchmarkE23DRAMBanking(b *testing.B) { benchExperiment(b, "E23") }

// BenchmarkE24SharingPatterns regenerates the CMP sharing-pattern table.
func BenchmarkE24SharingPatterns(b *testing.B) { benchExperiment(b, "E24") }

// BenchmarkE25NUCAMapping regenerates the static-vs-distance mapping table.
func BenchmarkE25NUCAMapping(b *testing.B) { benchExperiment(b, "E25") }

// BenchmarkE26NUCACompression regenerates the compression-capacity table.
func BenchmarkE26NUCACompression(b *testing.B) { benchExperiment(b, "E26") }

// TestAllExperimentsRun is the integration test: every experiment in the
// registry must run to completion and produce a non-empty table and a
// summary mentioning the paper.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy; skipped in -short mode")
	}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Table == nil || len(res.Table.String()) == 0 {
				t.Fatal("empty table")
			}
			if !strings.Contains(res.Summary, "paper") {
				t.Errorf("summary should reference the paper claim: %q", res.Summary)
			}
			t.Logf("%s: %s", exp.ID, res.Summary)
		})
	}
}

// TestByIDErrors covers the registry lookup.
func TestByIDErrors(t *testing.T) {
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if e, err := ByID("E7"); err != nil || e.ID != "E7" {
		t.Fatalf("E7 lookup failed: %v", err)
	}
}
