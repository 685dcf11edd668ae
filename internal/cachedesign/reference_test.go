package cachedesign

import (
	"fmt"
	"math/rand"
	"testing"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// refExplorer is the explorer as it was before stack passes: every
// configuration not seen since the last Reset is simulated by replaying
// the whole data trace through a fresh cache. The tests below hold the
// stack-pass explorer to its miss rates bit for bit, and to its
// candidates and simulation counts.
type refExplorer struct {
	tr          *trace.Trace
	Simulations int
	memo        map[cache.Config]float64
}

func newRefExplorer(tr *trace.Trace) *refExplorer {
	return &refExplorer{tr: tr.Data(), memo: make(map[cache.Config]float64)}
}

func (e *refExplorer) simulate(cfg cache.Config) (float64, error) {
	if mr, ok := e.memo[cfg]; ok {
		return mr, nil
	}
	c, err := cache.New(cfg)
	if err != nil {
		return 0, err
	}
	st := c.Replay(e.tr)
	mr := 1 - st.HitRate()
	e.memo[cfg] = mr
	e.Simulations++
	return mr, nil
}

func (e *refExplorer) Reset() {
	e.Simulations = 0
	e.memo = make(map[cache.Config]float64)
}

func (e *refExplorer) Exhaustive(space Space, targetMissRate float64) (*Candidate, error) {
	var best *Candidate
	for _, ways := range space.Ways {
		for sets := space.MinSets; sets <= space.MaxSets; sets <<= 1 {
			cfg := space.config(sets, ways)
			mr, err := e.simulate(cfg)
			if err != nil {
				return nil, err
			}
			if mr <= targetMissRate {
				cand := &Candidate{Config: cfg, MissRate: mr}
				if best == nil || cand.SizeBytes() < best.SizeBytes() {
					best = cand
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cachedesign: no configuration meets miss rate %.4f", targetMissRate)
	}
	return best, nil
}

func (e *refExplorer) Direct(space Space, targetMissRate float64) (*Candidate, error) {
	var setsList []int
	for s := space.MinSets; s <= space.MaxSets; s <<= 1 {
		setsList = append(setsList, s)
	}
	var best *Candidate
	for _, ways := range space.Ways {
		lo, hi := 0, len(setsList)-1
		mrMax, err := e.simulate(space.config(setsList[hi], ways))
		if err != nil {
			return nil, err
		}
		if mrMax > targetMissRate {
			continue
		}
		for lo < hi {
			mid := (lo + hi) / 2
			mr, err := e.simulate(space.config(setsList[mid], ways))
			if err != nil {
				return nil, err
			}
			if mr <= targetMissRate {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		cfg := space.config(setsList[lo], ways)
		mr, err := e.simulate(cfg)
		if err != nil {
			return nil, err
		}
		cand := &Candidate{Config: cfg, MissRate: mr}
		if best == nil || cand.SizeBytes() < best.SizeBytes() {
			best = cand
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cachedesign: no configuration meets miss rate %.4f", targetMissRate)
	}
	return best, nil
}

// randomTrace draws reads, writes and fetches over an address span small
// enough for hits and conflict misses, and short enough that many sets
// of a large cache never fill.
func randomTrace(r *rand.Rand) *trace.Trace {
	t := trace.New(256)
	span := uint32(1) << (8 + r.Intn(9))
	for i, n := 0, 16+r.Intn(2048); i < n; i++ {
		a := trace.Access{Addr: r.Uint32() % span, Width: 4, Kind: trace.Kind(r.Intn(3))}
		t.Append(a)
	}
	return t
}

// TestStackPassMatchesReplay: on random traces and on every kernel's
// trace, each miss rate the explorer prices from a stack pass equals,
// bit for bit, the one a fresh cache's replay gives. Geometries cover
// line sizes 16 to 64, 1 to 1024 sets and 1 to 8 ways; the pass depth is
// drawn apart from the ways, so some configurations are wider than the
// pass they meet and force a deeper one.
func TestStackPassMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	type input struct {
		name string
		tr   *trace.Trace
	}
	var inputs []input
	for i := 0; i < 20; i++ {
		inputs = append(inputs, input{fmt.Sprintf("random %d", i), randomTrace(r)})
	}
	kernels, err := workloads.Traces(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernels {
		inputs = append(inputs, input{k.Name, k.Trace})
	}
	compared := 0
	for _, in := range inputs {
		e, ref := NewExplorer(in.tr), newRefExplorer(in.tr)
		for g := 0; g < 4; g++ {
			sets, lineSize, depth := 1<<r.Intn(11), 16<<r.Intn(3), 1+r.Intn(8)
			for ways := 1; ways <= 8; ways++ {
				cfg := cache.Config{Sets: sets, Ways: ways, LineSize: lineSize, WriteBack: true, WriteAllocate: true}
				got, err := e.missRate(cfg, depth)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s, %d sets x %d ways x %d B (pass depth %d): miss rate %v, replay %v",
						in.name, sets, ways, lineSize, depth, got, want)
				}
				compared++
			}
		}
	}
	t.Logf("%d configurations on %d traces", compared, len(inputs))
}

// TestExplorerMatchesReference: on E19's kernels and targets, both
// methodologies return the reference explorer's candidates and
// simulation counts, whether the count is Reset between them or runs on.
func TestExplorerMatchesReference(t *testing.T) {
	space := DefaultSpace()
	for _, bench := range []struct {
		kernel string
		target float64
	}{
		{"matmul", 0.03}, {"histogram", 0.03}, {"fir", 0.03},
		{"listchase", 0.15}, {"hashlookup", 0.10}, {"qsort", 0.03},
	} {
		runs, err := workloads.Traces(1, bench.kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, reset := range []bool{true, false} {
			e, ref := NewExplorer(runs[0].Trace), newRefExplorer(runs[0].Trace)
			for _, method := range []string{"exhaustive", "direct"} {
				if method == "direct" && reset {
					e.Reset()
					ref.Reset()
				}
				var got, want *Candidate
				var gotErr, wantErr error
				if method == "exhaustive" {
					got, gotErr = e.Exhaustive(space, bench.target)
					want, wantErr = ref.Exhaustive(space, bench.target)
				} else {
					got, gotErr = e.Direct(space, bench.target)
					want, wantErr = ref.Direct(space, bench.target)
				}
				if gotErr != nil || wantErr != nil {
					t.Fatalf("%s %s: error %v, reference %v", bench.kernel, method, gotErr, wantErr)
				}
				if *got != *want || e.Simulations != ref.Simulations {
					t.Fatalf("%s %s (reset %v): %+v after %d simulations, reference %+v after %d",
						bench.kernel, method, reset, *got, e.Simulations, *want, ref.Simulations)
				}
			}
		}
	}
}
