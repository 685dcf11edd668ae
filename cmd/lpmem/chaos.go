// chaos.go implements `lpmem chaos`: a replayable fault-injection sweep
// over the experiment registry that asserts the runner engine's
// robustness invariants — it must never deadlock, never leak goroutines,
// and always return a well-formed per-experiment report, no matter which
// combination of delays, transient errors, panics, corrupted cells,
// slow starts and mid-job cancellations the seeded plan deals out.
//
// The sweep runs twice with the same seed and compares fault placement
// and outcomes, so any order-dependence that sneaks into the injector or
// the retry path fails the command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"time"

	"lpmem"
	"lpmem/internal/faultinject"
	"lpmem/internal/runner"
)

// chaosIDReport is the per-experiment row of a sweep report.
type chaosIDReport struct {
	ID       string `json:"id"`
	Fault    string `json:"fault"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// chaosSweep is the machine-readable result of one full sweep.
type chaosSweep struct {
	Seed           int64             `json:"seed"`
	Failed         int               `json:"failed"`
	GoroutineDelta int               `json:"goroutine_delta"`
	FaultCounts    map[string]uint64 `json:"fault_counts"`
	Metrics        lpmem.Metrics     `json:"metrics"`
	IDs            []chaosIDReport   `json:"experiments"`
	Violations     []string          `json:"violations,omitempty"`
}

// runChaos implements `lpmem chaos`.
func runChaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "fault-plan seed; identical seeds place identical faults")
	planStr := fs.String("plan", "all", "fault kinds: 'all' or comma list of "+faultinject.KindNames())
	rate := fs.Float64("rate", 0.6, "fraction of experiments faulted, in [0,1]")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	retries := fs.Int("retries", 2, "per-experiment retry budget")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-attempt deadline")
	maxDelay := fs.Duration("maxdelay", 25*time.Millisecond, "cap for injected delays")
	maxTime := fs.Duration("maxtime", 10*time.Minute, "sweep watchdog: exceeding it is reported as a deadlock")
	runs := fs.Int("runs", 2, "number of identical sweeps to compare for determinism")
	jsonOut := fs.Bool("json", false, "emit the sweep reports as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	kinds, err := faultinject.ParseKinds(*planStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *rate < 0 || *rate > 1 {
		fmt.Fprintf(stderr, "chaos: rate %v outside [0,1]\n", *rate)
		return 2
	}
	exps, err := selectExperiments(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	plan := faultinject.Plan{Seed: *seed, Rate: *rate, Kinds: kinds, MaxDelay: *maxDelay}
	var sweeps []chaosSweep
	for i := 0; i < *runs; i++ {
		sweep, deadlocked := chaosOnce(exps, plan, runner.Options{
			Workers: *parallel, Timeout: *timeout, NoCache: true, Retries: *retries,
			BreakerThreshold: 5, BreakerCooldown: time.Second,
		}, *maxTime)
		if deadlocked {
			fmt.Fprintf(stderr, "chaos: DEADLOCK: sweep %d did not finish within %v\n", i+1, *maxTime)
			return 1
		}
		sweeps = append(sweeps, sweep)
	}
	violations := crossRunViolations(sweeps)

	// Under -json stdout carries the one JSON document; the verdict line
	// goes to stderr.
	verdict := stdout
	if *jsonOut {
		verdict = stderr
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]interface{}{
			"plan":       plan.Seed,
			"sweeps":     sweeps,
			"violations": violations,
		})
	} else {
		renderChaos(stdout, sweeps, violations)
	}
	bad := len(violations)
	for _, s := range sweeps {
		bad += len(s.Violations)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "chaos: %d invariant violation(s)\n", bad)
		return 1
	}
	fmt.Fprintf(verdict, "chaos OK: %d sweep(s) of %d experiments under seed %d, zero leaks, deterministic placement\n",
		len(sweeps), len(exps), *seed)
	return 0
}

// chaosOnce runs one full sweep under a fresh injector and engine,
// validating the in-run invariants (well-formed report, no leaks).
func chaosOnce(exps []lpmem.Experiment, plan faultinject.Plan, opts runner.Options, maxTime time.Duration) (chaosSweep, bool) {
	in := faultinject.New(plan)
	eng := lpmem.NewEngine(opts)
	jobs := lpmem.Jobs(exps)
	for i := range jobs {
		jobs[i].Run = faultinject.Wrap(in, jobs[i].ID, jobs[i].Run, corruptResult)
	}

	var outs []runner.Outcome[*lpmem.Result]
	done := make(chan struct{})
	var delta int
	go func() {
		defer close(done)
		delta = faultinject.GoroutineDelta(5*time.Second, func() {
			outs = eng.Run(context.Background(), jobs)
		})
	}()
	select {
	case <-done:
	case <-time.After(maxTime):
		return chaosSweep{}, true
	}

	sweep := chaosSweep{
		Seed:           plan.Seed,
		GoroutineDelta: delta,
		FaultCounts:    in.Counts(),
		Metrics:        eng.Metrics(),
	}
	if delta > 0 {
		sweep.Violations = append(sweep.Violations,
			fmt.Sprintf("goroutine leak: %d goroutines outlived the sweep", delta))
	}
	if len(outs) != len(exps) {
		sweep.Violations = append(sweep.Violations,
			fmt.Sprintf("report truncated: %d outcomes for %d experiments", len(outs), len(exps)))
		return sweep, false
	}
	for i, out := range outs {
		row := chaosIDReport{
			ID:       exps[i].ID,
			Fault:    in.Decide(exps[i].ID).Kind.String(),
			Attempts: in.Attempts(exps[i].ID),
		}
		if out.Err != nil {
			row.Error = out.Err.Error()
			sweep.Failed++
		}
		sweep.IDs = append(sweep.IDs, row)
		// Well-formedness: order preserved, and every envelope either
		// carries an error or a renderable table, and serialises cleanly.
		if out.ID != exps[i].ID {
			sweep.Violations = append(sweep.Violations,
				fmt.Sprintf("report order broken: slot %d has %s, want %s", i, out.ID, exps[i].ID))
		}
		env := lpmem.Report{Experiment: exps[i], Outcome: out}.JSON()
		if env.Error == "" && (len(env.Header) == 0 || len(env.Rows) == 0) {
			sweep.Violations = append(sweep.Violations,
				fmt.Sprintf("%s: envelope has neither error nor table", exps[i].ID))
		}
		if _, err := json.Marshal(env); err != nil {
			sweep.Violations = append(sweep.Violations,
				fmt.Sprintf("%s: envelope does not serialise: %v", exps[i].ID, err))
		}
	}
	return sweep, false
}

// corruptResult is the Corrupt-fault hook: it flips one table cell of a
// successful result to garbage, leaving the envelope structurally valid.
func corruptResult(res *lpmem.Result, r *rand.Rand) *lpmem.Result {
	if res != nil && res.Table != nil {
		faultinject.CorruptTableCell(res.Table, r)
	}
	return res
}

// crossRunViolations compares sweeps pairwise: identical seeds must give
// identical fault placement, attempt counts and failure patterns.
func crossRunViolations(sweeps []chaosSweep) []string {
	var v []string
	if len(sweeps) < 2 {
		return v
	}
	ref := sweeps[0]
	for run := 1; run < len(sweeps); run++ {
		cur := sweeps[run]
		if len(cur.IDs) != len(ref.IDs) {
			v = append(v, fmt.Sprintf("run %d: %d rows vs %d in run 1", run+1, len(cur.IDs), len(ref.IDs)))
			continue
		}
		for i := range ref.IDs {
			a, b := ref.IDs[i], cur.IDs[i]
			if a.ID != b.ID || a.Fault != b.Fault {
				v = append(v, fmt.Sprintf("run %d: fault placement moved: %s=%s vs %s=%s",
					run+1, a.ID, a.Fault, b.ID, b.Fault))
			}
			if a.Attempts != b.Attempts {
				v = append(v, fmt.Sprintf("run %d: %s attempts %d vs %d", run+1, a.ID, b.Attempts, a.Attempts))
			}
			if (a.Error == "") != (b.Error == "") {
				v = append(v, fmt.Sprintf("run %d: %s outcome flipped (%q vs %q)", run+1, a.ID, a.Error, b.Error))
			}
		}
	}
	return v
}

// renderChaos prints the human-readable sweep summary.
func renderChaos(w io.Writer, sweeps []chaosSweep, violations []string) {
	for i, s := range sweeps {
		fmt.Fprintf(w, "sweep %d: %d experiments, %d failed, goroutine delta %d\n",
			i+1, len(s.IDs), s.Failed, s.GoroutineDelta)
		fmt.Fprintf(w, "  faults injected: %v\n", s.FaultCounts)
		fmt.Fprintf(w, "  engine: executed=%d retries=%d panics=%d breaker_opens=%d\n",
			s.Metrics.Executed, s.Metrics.Retries, s.Metrics.Panics, s.Metrics.BreakerOpens)
		for _, row := range s.IDs {
			if row.Fault == "none" && row.Error == "" {
				continue
			}
			status := "recovered"
			if row.Error != "" {
				status = "FAILED"
			}
			fmt.Fprintf(w, "  %-4s fault=%-9s attempts=%d %s\n", row.ID, row.Fault, row.Attempts, status)
		}
		for _, v := range s.Violations {
			fmt.Fprintf(w, "  VIOLATION: %s\n", v)
		}
	}
	for _, v := range violations {
		fmt.Fprintf(w, "CROSS-RUN VIOLATION: %s\n", v)
	}
}
