package lpmem

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"time"

	"lpmem/internal/runner"
	"lpmem/internal/stats"
)

//go:embed testdata/golden/*.json
var goldens embed.FS

// RegistryVersion participates in every runner cache key, coupling cached
// tables to the code that produced them. It is a digest of the golden
// tables in testdata/golden, which the regression tests force to change
// whenever an experiment's output does, so a redeployed lpmemd or a
// shared result store can never serve a stale table under a current key.
var RegistryVersion = registryVersion(goldens)

// registryVersion digests the name and content of every file in fsys,
// walked in lexical order, into 16 hex digits.
func registryVersion(fsys fs.FS) string {
	h := sha256.New()
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00%s", path, len(b), b)
		return nil
	})
	if err != nil {
		// Only the embedded goldens reach here outside tests.
		panic(fmt.Sprintf("lpmem: digest goldens: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Engine is the experiment-typed instantiation of the generic concurrent
// runner: bounded worker pool, per-experiment timeouts and cancellation,
// panic containment, content-keyed result cache, counter snapshot.
type Engine = runner.Engine[*Result]

// Metrics is the engine's counter snapshot (see runner.Metrics).
type Metrics = runner.Metrics

// NewEngine creates an experiment engine. Zero-valued options mean
// GOMAXPROCS workers, no per-experiment timeout, caching enabled.
func NewEngine(opts runner.Options) *Engine {
	return runner.New[*Result](opts)
}

// CacheKey is the content key of one experiment's result, in the
// engine's memory cache and in lpmemd's shared result store alike.
func CacheKey(id string) string { return id + "@" + RegistryVersion }

// Jobs adapts registry experiments to runner jobs. The experiments
// themselves predate context plumbing, so cancellation is honoured at
// job boundaries (and by the engine's deadline enforcement) rather than
// inside a harness.
func Jobs(exps []Experiment) []runner.Job[*Result] {
	jobs := make([]runner.Job[*Result], len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = runner.Job[*Result]{
			ID:  e.ID,
			Key: CacheKey(e.ID),
			Run: func(ctx context.Context) (*Result, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				return e.Run()
			},
		}
	}
	return jobs
}

// Report pairs a registry entry with its run outcome.
type Report struct {
	Experiment Experiment
	Outcome    runner.Outcome[*Result]
}

// RunBatch runs the experiments through the engine and returns one
// report per experiment, in input order.
func RunBatch(ctx context.Context, eng *Engine, exps []Experiment) []Report {
	outs := eng.Run(ctx, Jobs(exps))
	reports := make([]Report, len(exps))
	for i := range exps {
		reports[i] = Report{Experiment: exps[i], Outcome: outs[i]}
	}
	return reports
}

// ResultJSON is the structured envelope for one experiment run, shared
// by `lpmem run -json` and lpmemd's HTTP responses.
type ResultJSON struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	PaperClaim string     `json:"paper_claim"`
	Summary    string     `json:"summary,omitempty"`
	Header     []string   `json:"header,omitempty"`
	Rows       [][]string `json:"rows,omitempty"`
	DurationMS float64    `json:"duration_ms"`
	Cached     bool       `json:"cached"`
	Error      string     `json:"error,omitempty"`
}

// Result rebuilds the result an envelope carries. AddRow formats a
// string as itself, so the rebuilt result flattens back to the same
// envelope.
func (j ResultJSON) Result() *Result {
	t := stats.NewTable(j.Header...)
	for _, row := range j.Rows {
		cells := make([]interface{}, len(row))
		for i, c := range row {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
	return &Result{Table: t, Summary: j.Summary}
}

// JSON flattens a report into its wire envelope.
func (r Report) JSON() ResultJSON {
	j := ResultJSON{
		ID:         r.Experiment.ID,
		Title:      r.Experiment.Title,
		PaperClaim: r.Experiment.PaperClaim,
		DurationMS: float64(r.Outcome.Duration) / float64(time.Millisecond),
		Cached:     r.Outcome.Cached,
	}
	if r.Outcome.Err != nil {
		j.Error = r.Outcome.Err.Error()
		return j
	}
	if res := r.Outcome.Value; res != nil {
		j.Summary = res.Summary
		if res.Table != nil {
			j.Header = res.Table.Header()
			j.Rows = res.Table.ToRows()
		}
	}
	return j
}
