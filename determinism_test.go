package lpmem

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// TestExperimentsBinaryRoundTripEquivalence is the registry-wide proof
// that the columnar binary format is invisible to every experiment. The
// proof is made at the trace sources rather than by re-running the
// experiments over decoded copies: the 18 kernels at the registry's
// seed, the composite and profile applications, and the multi-core
// streams E24–E26 request each go through WriteBinary/ReadBinary once
// and must come back deep-equal — every access plus the MultiCore flag.
// Each registered experiment then gets a subtest over the sources it
// reads, so a codec defect fails exactly the experiments whose tables it
// would perturb. Equal inputs and TestExperimentsAreDeterministic
// together imply equal tables.
func TestExperimentsBinaryRoundTripEquivalence(t *testing.T) {
	kernels, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := compositeApps(kernels)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string][]*workloads.Result{
		"kernels":    kernels,
		"composites": comps,
		"profiles":   profileApps(),
	}
	// The core counts runE24, runE25 and runE26 pass to nucaTrace, each
	// seeded with its experiment number.
	for _, req := range []struct {
		seed  int64
		cores []int
	}{{24, []int{2, 4, 8}}, {25, []int{4}}, {26, []int{4}}} {
		group := fmt.Sprintf("nuca-%d", req.seed)
		for _, cores := range req.cores {
			for _, pattern := range trace.SharingPatterns() {
				tr, err := nucaTrace(req.seed, cores, pattern)
				if err != nil {
					t.Fatal(err)
				}
				sources[group] = append(sources[group],
					&workloads.Result{Name: fmt.Sprintf("%s-%s-%dc", group, pattern, cores), Trace: tr})
			}
		}
	}
	verdicts := make(map[string]error)
	for _, group := range sources {
		for _, src := range group {
			verdicts[src.Name] = binaryRoundTrip(src.Trace)
		}
	}
	t.Logf("%d traces round-tripped", len(verdicts))

	// The source groups each experiment reads. E2 reads every kernel
	// through workloads.Traces, and E8, E19, E21 and E23 read a subset of
	// them the same way; the experiments with no groups read no trace at
	// all.
	reads := map[string][]string{
		"E1": {"kernels", "composites", "profiles"},
		"E2": {"kernels"}, "E3": {"kernels"}, "E5": {"kernels"},
		"E7": {"kernels"}, "E8": {"kernels"},
		"E9":  {"kernels", "composites"},
		"E19": {"kernels"}, "E21": {"kernels"}, "E23": {"kernels"},
		"E24": {"nuca-24"}, "E25": {"nuca-25"}, "E26": {"nuca-26"},
		"E4": nil, "E6": nil, "E10": nil, "E11": nil, "E12": nil, "E13": nil, "E14": nil,
		"E15": nil, "E16": nil, "E17": nil, "E18": nil, "E20": nil, "E22": nil,
	}
	for _, exp := range Experiments() {
		groups, listed := reads[exp.ID]
		delete(reads, exp.ID)
		t.Run(exp.ID, func(t *testing.T) {
			if !listed {
				t.Fatalf("%s is missing from the table of the trace sources experiments read", exp.ID)
			}
			for _, g := range groups {
				srcs, ok := sources[g]
				if !ok {
					t.Fatalf("%s reads unknown source group %q", exp.ID, g)
				}
				for _, src := range srcs {
					if err := verdicts[src.Name]; err != nil {
						t.Errorf("%s reads %s: %v", exp.ID, src.Name, err)
					}
				}
			}
		})
	}
	if len(reads) != 0 {
		t.Errorf("the table of trace sources lists unregistered experiments: %v", reads)
	}
}

// binaryRoundTrip writes tr in the columnar binary format, reads it back
// and reports any difference from the original.
func binaryRoundTrip(tr *trace.Trace) error {
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		return fmt.Errorf("WriteBinary: %w", err)
	}
	back, err := trace.ReadBinary(&buf)
	if err != nil {
		return fmt.Errorf("ReadBinary: %w", err)
	}
	if !reflect.DeepEqual(back, tr) {
		return fmt.Errorf("binary round-trip changed the trace (%d accesses, multi-core %v)",
			tr.Len(), tr.MultiCore)
	}
	return nil
}

// TestExperimentsAreDeterministic runs every registered experiment twice
// and requires bit-identical output: same table header, same rendered
// rows, same headline summary. This is the runtime counterpart of the
// lpmemlint determinism analyzer — the analyzer proves no experiment
// reads an unseeded entropy source, and this test proves the composed
// pipelines actually reproduce the paper tables run-over-run.
func TestExperimentsAreDeterministic(t *testing.T) {
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			first, err := exp.Run()
			if err != nil {
				t.Fatalf("%s first run: %v", exp.ID, err)
			}
			second, err := exp.Run()
			if err != nil {
				t.Fatalf("%s second run: %v", exp.ID, err)
			}
			if first.Summary != second.Summary {
				t.Errorf("%s summary differs between runs:\n run 1: %s\n run 2: %s",
					exp.ID, first.Summary, second.Summary)
			}
			if !reflect.DeepEqual(first.Table.Header(), second.Table.Header()) {
				t.Errorf("%s table header differs between runs:\n run 1: %v\n run 2: %v",
					exp.ID, first.Table.Header(), second.Table.Header())
			}
			r1, r2 := first.Table.ToRows(), second.Table.ToRows()
			if len(r1) != len(r2) {
				t.Fatalf("%s row count differs between runs: %d vs %d", exp.ID, len(r1), len(r2))
			}
			for i := range r1 {
				if !reflect.DeepEqual(r1[i], r2[i]) {
					t.Errorf("%s row %d differs between runs:\n run 1: %v\n run 2: %v",
						exp.ID, i, r1[i], r2[i])
				}
			}
		})
	}
}
