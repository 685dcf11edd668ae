package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaVersion identifies the baseline JSON layout; bump it when the
// schema changes incompatibly so a stale file fails loudly instead of
// comparing garbage.
const SchemaVersion = "lpmem-bench/1"

// ExperimentBaseline is the committed perf record of one experiment.
type ExperimentBaseline struct {
	ID string `json:"id"`
	// WallNS is the min-of-N wall time of one uncached run.
	WallNS int64 `json:"wall_ns"`
	// Allocs and Bytes are the min-of-N heap allocation count and volume
	// of one uncached run.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Headline is the experiment's deterministic summary line: the
	// baseline's copy of the headline metric, kept here so the perf file
	// is self-describing without the golden dir.
	Headline string `json:"headline"`
}

// Optimization documents one hot-path win with its measured effect, so
// the perf trajectory records not just current numbers but why they
// moved. Before/After map experiment ID to min-of-N wall nanoseconds
// measured on the same machine in the same session.
type Optimization struct {
	Target      string           `json:"target"`
	Description string           `json:"description"`
	Before      map[string]int64 `json:"before_wall_ns"`
	After       map[string]int64 `json:"after_wall_ns"`
}

// Baseline is the committed perf file (BENCH_*.json).
type Baseline struct {
	Schema string `json:"schema"`
	// GoVersion is informational: the toolchain the record was taken with.
	GoVersion string `json:"go_version"`
	// Iterations is the N of the min-of-N timings.
	Iterations int `json:"iterations"`
	// TolerancePct is the ±% timing tolerance the file was recorded to be
	// checked with.
	TolerancePct float64 `json:"tolerance_pct"`
	// CalibrationNS is the min-of-N wall time of the fixed calibration
	// loop on the recording machine; checks scale expectations by the
	// ratio of their own calibration to this.
	CalibrationNS int64 `json:"calibration_ns"`
	// Experiments holds one record per experiment, ID-sorted.
	Experiments []ExperimentBaseline `json:"experiments"`
	// Optimizations is the append-only log of recorded hot-path wins.
	Optimizations []Optimization `json:"optimizations,omitempty"`
}

// ByID returns the baseline record for an experiment, if present.
func (b *Baseline) ByID(id string) (ExperimentBaseline, bool) {
	for _, e := range b.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return ExperimentBaseline{}, false
}

// Upsert replaces or inserts one experiment record, keeping Experiments
// ID-sorted (E2 < E10 ordering is fine as long as it is stable; records
// sort by natural experiment number when IDs share the E-prefix).
func (b *Baseline) Upsert(e ExperimentBaseline) {
	for i := range b.Experiments {
		if b.Experiments[i].ID == e.ID {
			b.Experiments[i] = e
			return
		}
	}
	b.Experiments = append(b.Experiments, e)
	sort.Slice(b.Experiments, func(i, j int) bool {
		return lessExperimentID(b.Experiments[i].ID, b.Experiments[j].ID)
	})
}

// lessExperimentID orders "E2" before "E10" by comparing the numeric
// suffix when both IDs have the canonical E<number> shape, falling back
// to plain string order otherwise.
func lessExperimentID(a, b string) bool {
	na, oka := experimentNumber(a)
	nb, okb := experimentNumber(b)
	if oka && okb {
		return na < nb
	}
	return a < b
}

func experimentNumber(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'E' {
		return 0, false
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// WriteBaseline persists the baseline as indented JSON.
func WriteBaseline(path string, b *Baseline) error {
	b.Schema = SchemaVersion
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("regress: encoding baseline: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("regress: writing baseline: %w", err)
	}
	return nil
}

// ReadBaseline loads a baseline file and validates its schema tag.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("regress: reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("regress: decoding baseline %s: %w", path, err)
	}
	if b.Schema != SchemaVersion {
		return nil, fmt.Errorf("regress: baseline %s has schema %q, want %q (re-record it)",
			path, b.Schema, SchemaVersion)
	}
	return &b, nil
}

// Tolerances bound how far a live measurement may drift above its
// baseline before the check fails. Speedups never fail: the harness
// enforces "hot paths only get faster", not a timing pin.
type Tolerances struct {
	// Pct is the allowed relative growth in percent (25 = +25%).
	Pct float64
	// WallFloorNS is the absolute slack added to wall-time bounds so
	// sub-millisecond experiments aren't failed by scheduler jitter.
	WallFloorNS int64
	// AllocFloor is the absolute slack added to allocation bounds.
	AllocFloor uint64
}

// DefaultTolerances matches the acceptance bar: a >20% slowdown on any
// experiment fails the check. The percentage was tightened from 25 when
// the zero-allocation binary replay path landed: with allocation counts
// now small and stable, less headroom is needed to absorb noise, and a
// tighter bound catches regressions the old one let through. The alloc
// floor dropped with it for the same reason.
func DefaultTolerances() Tolerances {
	return Tolerances{Pct: 20, WallFloorNS: 20_000_000, AllocFloor: 20_000}
}

// CompareCost checks a live measurement against its baseline record.
// scale is the live/recorded calibration ratio: a machine measuring its
// calibration loop 2x slower than the recorder is allowed 2x the wall
// time before the percentage tolerance even starts.
func CompareCost(base ExperimentBaseline, live Measurement, tol Tolerances, scale float64) []Drift {
	var ds []Drift
	allowedWall := int64(float64(base.WallNS)*scale*(1+tol.Pct/100)) + tol.WallFloorNS
	if live.WallNS > allowedWall {
		ds = append(ds, Drift{ID: base.ID, Kind: "timing",
			Detail: fmt.Sprintf("wall %.1fms exceeds budget %.1fms (baseline %.1fms × scale %.2f + %.0f%% + floor)",
				float64(live.WallNS)/1e6, float64(allowedWall)/1e6,
				float64(base.WallNS)/1e6, scale, tol.Pct)})
	}
	allowedAllocs := base.Allocs + uint64(float64(base.Allocs)*tol.Pct/100) + tol.AllocFloor
	if live.Allocs > allowedAllocs {
		ds = append(ds, Drift{ID: base.ID, Kind: "allocs",
			Detail: fmt.Sprintf("allocs %d exceed budget %d (baseline %d + %.0f%% + floor)",
				live.Allocs, allowedAllocs, base.Allocs, tol.Pct)})
	}
	return ds
}

// Scale converts the recorded and live calibration times into the factor
// applied to wall-time budgets. It is clamped to [0.25, 4]: outside that
// range the machines are too dissimilar for timing comparison to mean
// anything, and the clamp keeps a corrupt calibration from disabling the
// check entirely.
func Scale(recordedNS, liveNS int64) float64 {
	if recordedNS <= 0 || liveNS <= 0 {
		return 1
	}
	s := float64(liveNS) / float64(recordedNS)
	if s < 0.25 {
		s = 0.25
	}
	if s > 4 {
		s = 4
	}
	return s
}
