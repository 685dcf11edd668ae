// Command lpmem runs the reproduction experiments of the DATE'03 low-power
// track and prints their tables, and provides workload tooling.
//
// Usage:
//
//	lpmem list                          # list experiments
//	lpmem run [flags] E1 [E7 ...]       # run selected experiments
//	lpmem run all                       # run everything
//	lpmem run -parallel 8 -json all     # parallel batch, JSON envelopes
//	lpmem loadgen -addr http://h:8093   # drive an lpmemd fleet with load
//	lpmem kernels                       # list workload kernels
//	lpmem trace <kernel>                # run a kernel and dump its trace
//
// Experiments execute on the concurrent runner engine (internal/runner):
// -parallel sets the worker-pool size, -timeout bounds each experiment,
// and -json swaps the text tables for the same JSON envelopes lpmemd
// serves. If any requested experiment fails, every remaining experiment
// still runs and lpmem exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lpmem"
	"lpmem/internal/runner"
	"lpmem/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		for _, e := range lpmem.Experiments() {
			fmt.Fprintf(stdout, "%-4s %-60s %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return 0
	case "run":
		return runExperiments(args[1:], stdout, stderr)
	case "chaos":
		return runChaos(args[1:], stdout, stderr)
	case "sweep":
		return runSweep(args[1:], stdout, stderr)
	case "loadgen":
		return runLoadgen(args[1:], stdout, stderr)
	case "kernels":
		for _, k := range workloads.All() {
			inst := k.Build(1)
			fmt.Fprintf(stdout, "%-12s %3d instructions, %d data regions\n",
				k.Name, inst.Prog.Len(), len(inst.Arrays))
		}
		return 0
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
}

// selectExperiments resolves command-line experiment IDs against the
// registry: no IDs, or the single word "all", selects every experiment.
func selectExperiments(ids []string) ([]lpmem.Experiment, error) {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		return lpmem.Experiments(), nil
	}
	exps := make([]lpmem.Experiment, len(ids))
	for i, id := range ids {
		exp, err := lpmem.ByID(id)
		if err != nil {
			return nil, err
		}
		exps[i] = exp
	}
	return exps, nil
}

// runExperiments implements `lpmem run`: resolve IDs, execute the batch
// on the engine, render text or JSON, and report failures via exit code.
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit JSON envelopes instead of text tables")
	timeout := fs.Duration("timeout", 0, "per-experiment deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exps, err := selectExperiments(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	eng := lpmem.NewEngine(runner.Options{Workers: *parallel, Timeout: *timeout})
	reports := lpmem.RunBatch(context.Background(), eng, exps)

	failed := 0
	if *jsonOut {
		envs := make([]lpmem.ResultJSON, len(reports))
		for i, r := range reports {
			envs[i] = r.JSON()
			if envs[i].Error != "" {
				failed++
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(envs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for _, r := range reports {
			fmt.Fprintf(stdout, "=== %s: %s\n", r.Experiment.ID, r.Experiment.Title)
			fmt.Fprintf(stdout, "paper claim: %s\n\n", r.Experiment.PaperClaim)
			if err := r.Outcome.Err; err != nil {
				fmt.Fprintf(stderr, "%s failed: %v\n", r.Experiment.ID, err)
				failed++
				continue
			}
			fmt.Fprint(stdout, r.Outcome.Value.Table.String())
			fmt.Fprintf(stdout, "\n>>> %s\n\n", r.Outcome.Value.Summary)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "lpmem: %d of %d experiments failed\n", failed, len(reports))
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `lpmem — DATE'03 low-power track reproduction driver

usage:
  lpmem list                      list experiments
  lpmem run [flags] all           run every experiment
  lpmem run [flags] E1 E7 ...     run selected experiments
  lpmem chaos [flags] [ids|all]   fault-injection robustness sweep
  lpmem sweep [flags]             design-space exploration (Pareto frontiers)
  lpmem loadgen [flags]           drive an lpmemd fleet, report latency/shed stats
  lpmem kernels                   list workload kernels
  lpmem trace <kernel> [seed]     dump a kernel memory trace (text format)
  lpmem trace convert [flags]     interconvert text and binary traces losslessly
  lpmem trace info FILE           header, access counts and density of a trace
  lpmem trace replay [flags] FILE stream a trace through a cache, print stats

run flags:
  -parallel N    worker-pool size (default GOMAXPROCS)
  -json          emit JSON envelopes instead of text tables
  -timeout D     per-experiment deadline (e.g. 90s; default none)

chaos flags:
  -seed N        fault-plan seed (default 1); same seed, same faults
  -plan KINDS    'all' or a comma list (delay,error,panic,corrupt,slowstart,cancel)
  -rate R        fraction of experiments faulted (default 0.6)
  -runs N        identical sweeps compared for determinism (default 2)
  -retries N     per-experiment retry budget (default 2)
  -json          emit sweep reports as JSON (the OK line goes to stderr)

loadgen flags:
  -addr URLS     comma list of lpmemd base URLs, round-robined
  -clients N     concurrent clients (default 4); -rate R total req/s (0 = closed loop)
  -duration D    load window (default 10s); -requests N hard request cap
  -mix SPEC      weighted kinds, e.g. one=8,batch=1,list=1 (also: health)
  -ids LIST      experiment IDs drawn by one/batch (default E17,E22,E4)
  -seed N        workload seed; -timeout D per-request deadline
  -probe D       wait for every replica's /healthz before starting
  -verify        cross-check client 429s against server shed counters
  -json          emit the report as JSON

sweep flags:
  -space NAME    design space: banks, cache, bus, memhier, memtech, nuca (-list to enumerate)
  -points N      Latin-hypercube sample size (default 0 = full grid)
  -seed N        sampling seed (default 1)
  -resume FILE   JSONL result store; reruns skip already-evaluated points
  -pareto        print only the Pareto frontier table
  -objectives L  frontier objectives (default energy_pj,latency,area)
  -parallel N    worker-pool size; -batch N points per batch; -timeout D
                 per-point deadline (banks, memhier: a column's first job
                 computes the whole column, so its deadline covers that)
  -json          emit the sweep envelope as JSON; -v batch progress

trace convert flags:
  -i FILE        input trace, text or binary, sniffed (- = stdin)
  -o FILE        output path (- = stdout)
  -to FMT        text | binary | auto (default: the opposite of the input);
                 -to text prints a trace of either format as text

trace replay flags:
  -sets N -ways N -line N         cache geometry (default 64x4, 32B lines)
  -write-through -no-allocate     write policies (default write-back, allocate)

exit status: 0 on success, 1 if any experiment failed (run), any
robustness invariant was violated (chaos), or any sweep point failed
(sweep), 2 on usage errors.
`)
}
