// Command benchmark is go-lpmem's end-to-end benchmark. It runs one of
// three workloads for a fixed time, checks every output against the
// committed goldens, and prints one JSON result line as the last line of
// standard output:
//
//	suite  all 26 experiments, one at a time, through a 1-worker
//	       uncached engine (what `lpmem run -parallel 1 all` does)
//	sweep  a cold pass over the cache, memhier, nuca and banks grids
//	       into a fresh file-backed store, then a resume from that file
//	serve  an in-process lpmemd replica: a cold POST /run?ids=all, then
//	       two closed-loop clients replaying a seeded one/batch/list mix
//
// Untraced runs (-trace 0) print the end-to-end metrics. A traced run
// (-trace 1) times the benchmark's own calls into every layer's public
// functions, records them as spans written to the output directory at
// exit, and prints the per-layer metrics. README.md defines every metric.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload suite|sweep|serve --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lpmem/internal/stats"
	"lpmem/internal/sweep"
)

// setupRuns is how many times a run times its workload's set-up.
const setupRuns = 7

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	// golden is the directory of golden snapshots outputs are checked
	// against; out holds the stores, logs and span files a run writes.
	golden, out string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench accumulates one run's outcome: operations attempted and failed,
// the metrics to print, and the human-readable report.
type bench struct {
	cfg               config
	attempted, failed int
	metrics           map[string]metric
	report            io.Writer
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted operation, and a failure when err is set.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.report, "FAIL %s: %v\n", what, err)
	}
}

// measures are the untraced workloads.
var measures = map[string]func(b *bench, dir string) error{
	"suite": measureSuite,
	"sweep": measureSweep,
	"serve": measureServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: suite, sweep or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the serve request sequence")
	secs := fs.Int("seconds", 10, "measuring time; at least one repetition always runs")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.golden, "golden", filepath.Join("testdata", "golden"), "golden snapshot directory")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for stores, logs and span files")
	setupOnly := fs.Bool("setup-child", false, "perform the workload's set-up, print ready and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := measures[cfg.workload]; !ok || *secs < 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchmark --workload suite|sweep|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg.seconds = time.Duration(*secs) * time.Second

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.out, "run-"+cfg.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *setupOnly {
		if err := setupChild(cfg, dir, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: set-up: %v\n", err)
			return 1
		}
		return 0
	}

	b := &bench{cfg: cfg, metrics: map[string]metric{}, report: stderr}
	if *trace == 1 {
		err = runTraced(b, dir)
	} else {
		err = measureEndToEnd(b, dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	fmt.Fprintf(stderr, "failed_ratio %g fraction (%d of %d operations)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for name, m := range res.Metrics {
		// JSON has no infinity: a latency percentile that landed on a
		// failed request is dropped, and the run already reads incorrect.
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			delete(res.Metrics, name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measureEndToEnd times the workload's set-up in child processes, then
// runs the workload itself and records the process's peak memory.
func measureEndToEnd(b *bench, dir string) error {
	setups, err := timeSetups(b.cfg, dir)
	if err != nil {
		return err
	}
	setup := stats.Median(setups)
	b.set("setup_s", setup, "s")
	fmt.Fprintf(b.report, "setup_s %.4f s (median; processes %s s)\n", setup, list(setups))
	if err := measures[b.cfg.workload](b, dir); err != nil {
		return err
	}
	rss := peakRSSMiB()
	b.set("peak_rss_mb", rss, "MiB")
	fmt.Fprintf(b.report, "peak_rss_mb %.1f MiB\n", rss)
	return nil
}

// timeSetups starts this program setupRuns times in set-up mode and
// times each from process start until it reports ready for its first
// timed operation. Child processes repeat the set-up honestly: the sweep
// adapters build their reference traces once per process.
func timeSetups(cfg config, dir string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", cfg.workload, "--golden", cfg.golden, "--out", dir)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(start)
		if err := errors.Join(readErr, cmd.Wait()); err != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process: %q, %v", line, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupChild performs one workload's process set-up, then tells the
// parent it is ready to run its first timed operation.
func setupChild(cfg config, dir string, stdout io.Writer) error {
	teardown := func() error { return nil }
	switch cfg.workload {
	case "suite":
		if _, err := newSuite(cfg.golden); err != nil {
			return err
		}
	case "sweep":
		if _, err := newSweep(); err != nil {
			return err
		}
		store, err := sweep.OpenStore(filepath.Join(dir, "sweep-0.jsonl"))
		if err != nil {
			return err
		}
		teardown = store.Close
	case "serve":
		s, err := newServe(cfg, dir)
		if err != nil {
			return err
		}
		r, err := s.startReplica(0, nil)
		if err != nil {
			return err
		}
		teardown = r.close
	}
	_, err := fmt.Fprintln(stdout, "ready")
	return errors.Join(err, teardown())
}

// errCheck joins mismatch descriptions into one error (nil when empty).
func errCheck(problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	msg := problems[0]
	if len(problems) > 1 {
		msg = fmt.Sprintf("%s (and %d more)", msg, len(problems)-1)
	}
	return errors.New(msg)
}

// list formats per-repetition values for the report.
func list(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// interquartileMean is the mean of the values between the first and
// third quartiles (all of them for fewer than four).
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; q > 0 {
		s = s[q : len(s)-q]
	}
	return stats.Mean(s)
}
