// Command lpmembench is the regression gate for the experiment registry:
// it pins every experiment's regenerated paper table to a committed
// golden snapshot and its runtime cost to a committed perf baseline.
//
// Usage:
//
//	lpmembench -check                 # compare live tree against baselines
//	lpmembench -record                # refresh goldens + perf baseline
//	lpmembench -check -json           # machine-readable drift report
//	lpmembench -check -filter E1,E11  # restrict to a subset
//	lpmembench -record -iterations 5  # more damping for a cleaner record
//	lpmembench -record -filter E10    # re-record a subset; keeps the calibration
//
// -check measures every (selected) experiment through the real runner
// engine with caching disabled, diffs tables and summaries exactly
// against testdata/golden/, diffs wall time and allocations against the
// committed BENCH file within a calibrated ±% tolerance, and exits 1 on
// any drift. -record rewrites both artifact families; commit the result
// when the change is deliberate. See scripts/README.md for the workflow.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"

	"lpmem"
	"lpmem/internal/regress"
)

// defaultBaseline is the committed perf file this PR records into;
// future PRs re-record into a BENCH_PR<n>.json of their own and update
// this default.
const defaultBaseline = "BENCH_PR26.json"

const defaultGoldenDir = "testdata/golden"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	record, check bool
	jsonOut       bool
	verbose       bool
	filter        string
	iterations    int
	baseline      string
	goldenDir     string
	tolerance     float64
}

// report is the -json envelope of a check run.
type report struct {
	OK           bool    `json:"ok"`
	Mode         string  `json:"mode"`
	Iterations   int     `json:"iterations"`
	TolerancePct float64 `json:"tolerance_pct"`
	Scale        float64 `json:"scale,omitempty"`
	// LiveCalibrationNS and RecordedCalibrationNS are the two calibration
	// times whose ratio is Scale: this run's and the baseline file's.
	LiveCalibrationNS     int64                 `json:"live_calibration_ns,omitempty"`
	RecordedCalibrationNS int64                 `json:"recorded_calibration_ns,omitempty"`
	Drifts                []regress.Drift       `json:"drifts"`
	Measurements          []regress.Measurement `json:"measurements"`
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("lpmembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&cfg.record, "record", false, "re-measure and rewrite the goldens and the perf baseline")
	fs.BoolVar(&cfg.check, "check", false, "measure the live tree and compare against committed baselines")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit a machine-readable JSON report")
	fs.BoolVar(&cfg.verbose, "v", false, "log per-experiment progress to stderr")
	fs.StringVar(&cfg.filter, "filter", "", "comma-separated experiment IDs (default: full registry)")
	fs.IntVar(&cfg.iterations, "iterations", 3, "timing iterations per experiment; min-of-N damps noise")
	fs.StringVar(&cfg.baseline, "baseline", defaultBaseline, "perf baseline JSON path")
	fs.StringVar(&cfg.goldenDir, "golden", defaultGoldenDir, "golden snapshot directory")
	fs.Float64Var(&cfg.tolerance, "tolerance", regress.DefaultTolerances().Pct, "allowed wall/alloc growth in percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.record == cfg.check {
		fmt.Fprintln(stderr, "lpmembench: exactly one of -record or -check is required")
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lpmembench: unexpected arguments %v\n", fs.Args())
		return 2
	}

	exps, err := selectExperiments(cfg.filter)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	progress := func(string) {}
	if cfg.verbose {
		progress = func(id string) { fmt.Fprintf(stderr, "lpmembench: measuring %s\n", id) }
	}

	if cfg.record {
		return doRecord(cfg, exps, progress, stdout, stderr)
	}
	return doCheck(cfg, exps, progress, stdout, stderr)
}

// selectExperiments resolves -filter against the registry.
func selectExperiments(filter string) ([]lpmem.Experiment, error) {
	if filter == "" {
		return lpmem.Experiments(), nil
	}
	var exps []lpmem.Experiment
	for _, id := range strings.Split(filter, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		exp, err := lpmem.ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, exp)
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("lpmembench: -filter %q selects no experiments", filter)
	}
	return exps, nil
}

// doRecord refreshes the golden snapshots and the perf baseline for the
// selected experiments, preserving non-selected entries and the
// optimization log of an existing baseline file. A baseline file that
// does not exist yet starts from the default baseline's optimization
// log, so recording into a new file carries the log forward.
//
// A record of part of the registry into an existing baseline keeps the
// file's calibration, which every other entry's wall time is relative
// to, and stores each new wall scaled to it: measured × recorded / live
// calibration. A full record re-calibrates the whole file.
func doRecord(cfg config, exps []lpmem.Experiment, progress func(string), stdout, stderr io.Writer) int {
	meas, err := regress.MeasureAll(exps, cfg.iterations, progress)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	base := &regress.Baseline{}
	if prev, err := regress.ReadBaseline(cfg.baseline); err == nil {
		base = prev
	} else if !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(stderr, "lpmembench: ignoring existing baseline: %v\n", err)
	} else if def, err := regress.ReadBaseline(defaultBaseline); err == nil {
		base.Optimizations = def.Optimizations
	}
	liveCal := regress.Calibrate(cfg.iterations)
	scale := 1.0
	if base.CalibrationNS > 0 && subset(exps) {
		scale = regress.Scale(base.CalibrationNS, liveCal)
	} else {
		base.GoVersion = runtime.Version()
		base.Iterations = cfg.iterations
		base.TolerancePct = cfg.tolerance
		base.CalibrationNS = liveCal
	}
	for _, m := range meas {
		if err := regress.WriteGolden(cfg.goldenDir, m.Snapshot); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		base.Upsert(regress.ExperimentBaseline{
			ID: m.ID, WallNS: int64(float64(m.WallNS) / scale), Allocs: m.Allocs, Bytes: m.Bytes,
			Headline: m.Snapshot.Summary,
		})
	}
	if err := regress.WriteBaseline(cfg.baseline, base); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if cfg.jsonOut {
		rep := report{OK: true, Mode: "record", Iterations: cfg.iterations,
			TolerancePct: cfg.tolerance, Drifts: []regress.Drift{}, Measurements: meas}
		return emitJSON(stdout, stderr, rep, 0)
	}
	fmt.Fprintf(stdout, "recorded %d experiments to %s (goldens in %s, calibration %.1fms recorded, %.1fms live)\n",
		len(meas), cfg.baseline, cfg.goldenDir, float64(base.CalibrationNS)/1e6, float64(liveCal)/1e6)
	for _, m := range meas {
		eb, _ := base.ByID(m.ID)
		fmt.Fprintf(stdout, "  %-4s %8.1fms %9d allocs  %s\n",
			m.ID, float64(eb.WallNS)/1e6, m.Allocs, m.Snapshot.Summary)
	}
	return 0
}

// subset reports whether exps leaves out some registry experiment.
func subset(exps []lpmem.Experiment) bool {
	ids := make(map[string]bool, len(exps))
	for _, e := range exps {
		ids[e.ID] = true
	}
	return len(ids) < len(lpmem.Experiments())
}

// doCheck measures the live tree and diffs it against the committed
// goldens and perf baseline, exiting 1 on any drift.
func doCheck(cfg config, exps []lpmem.Experiment, progress func(string), stdout, stderr io.Writer) int {
	var drifts []regress.Drift
	base, err := regress.ReadBaseline(cfg.baseline)
	if err != nil {
		drifts = append(drifts, regress.Drift{Kind: "error", Detail: err.Error()})
	}

	var meas []regress.Measurement
	if len(drifts) == 0 {
		meas, err = regress.MeasureAll(exps, cfg.iterations, progress)
		if err != nil {
			drifts = append(drifts, regress.Drift{Kind: "error", Detail: err.Error()})
		}
	}

	var scale float64
	var liveCal int64
	if len(drifts) == 0 {
		liveCal = regress.Calibrate(cfg.iterations)
		scale = regress.Scale(base.CalibrationNS, liveCal)
		tol := regress.DefaultTolerances()
		tol.Pct = cfg.tolerance
		selected := make(map[string]bool, len(exps))
		for _, e := range exps {
			selected[e.ID] = true
		}
		for _, m := range meas {
			golden, err := regress.ReadGolden(cfg.goldenDir, m.ID)
			if err != nil {
				drifts = append(drifts, regress.Drift{ID: m.ID, Kind: "missing-golden", Detail: err.Error()})
			} else {
				drifts = append(drifts, regress.CompareSnapshot(golden, m.Snapshot)...)
			}
			eb, ok := base.ByID(m.ID)
			if !ok {
				drifts = append(drifts, regress.Drift{ID: m.ID, Kind: "missing-baseline",
					Detail: fmt.Sprintf("no perf record in %s; re-record", cfg.baseline)})
				continue
			}
			drifts = append(drifts, regress.CompareCost(eb, m, tol, scale)...)
		}
		// A full-registry check also flags stale artifacts: goldens or
		// baseline records for experiments that no longer exist.
		if cfg.filter == "" {
			if ids, err := regress.GoldenIDs(cfg.goldenDir); err == nil {
				for _, id := range ids {
					if !selected[id] {
						drifts = append(drifts, regress.Drift{ID: id, Kind: "extra-golden",
							Detail: "golden file has no registry experiment; delete or re-record"})
					}
				}
			}
			for _, eb := range base.Experiments {
				if !selected[eb.ID] {
					drifts = append(drifts, regress.Drift{ID: eb.ID, Kind: "extra-baseline",
						Detail: "baseline record has no registry experiment; re-record"})
				}
			}
		}
	}

	ok := len(drifts) == 0
	if cfg.jsonOut {
		rep := report{OK: ok, Mode: "check", Iterations: cfg.iterations,
			TolerancePct: cfg.tolerance, Scale: scale, Drifts: drifts, Measurements: meas}
		if liveCal > 0 {
			rep.LiveCalibrationNS, rep.RecordedCalibrationNS = liveCal, base.CalibrationNS
		}
		if rep.Drifts == nil {
			rep.Drifts = []regress.Drift{}
		}
		if rep.Measurements == nil {
			rep.Measurements = []regress.Measurement{}
		}
		code := 0
		if !ok {
			code = 1
		}
		return emitJSON(stdout, stderr, rep, code)
	}
	for _, m := range meas {
		fmt.Fprintf(stdout, "  %-4s %8.1fms %9d allocs\n", m.ID, float64(m.WallNS)/1e6, m.Allocs)
	}
	var calibration string
	if liveCal > 0 {
		calibration = fmt.Sprintf(" (scale %.2f: calibration %.1fms live, %.1fms recorded)",
			scale, float64(liveCal)/1e6, float64(base.CalibrationNS)/1e6)
	}
	if !ok {
		fmt.Fprintf(stderr, "lpmembench: %d drift(s) from committed baselines%s:\n", len(drifts), calibration)
		for _, d := range drifts {
			fmt.Fprintf(stderr, "  %s\n", d)
		}
		fmt.Fprintln(stderr, "lpmembench: if the change is deliberate, re-record with `go run ./cmd/lpmembench -record` and commit")
		return 1
	}
	fmt.Fprintf(stdout, "lpmembench: %d experiments match goldens and perf baseline%s\n", len(meas), calibration)
	return 0
}

func emitJSON(stdout, stderr io.Writer, rep report, code int) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return code
}
