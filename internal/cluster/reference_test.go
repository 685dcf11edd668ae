package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lpmem/internal/trace"
)

// refOrder is the direct map-based form of the greedy: every round
// rescores each unplaced block through freq, used and affinity map
// lookups against the last Window placed blocks. The dense greedy must
// produce the same order.
func refOrder(t *trace.Trace, blockSize uint32, cfg Config) []uint32 {
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	mask := ^(blockSize - 1)
	freq := make(map[uint32]uint64)
	affinity := make(map[[2]uint32]uint64)
	prev := uint32(0)
	havePrev := false
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		b := a.Addr & mask
		freq[b]++
		if havePrev && prev != b {
			affinity[refPairKey(prev, b)]++
		}
		prev = b
		havePrev = true
	}
	blocks := make([]uint32, 0, len(freq))
	for b := range freq {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		fi, fj := freq[blocks[i]], freq[blocks[j]]
		if fi != fj {
			return fi > fj
		}
		return blocks[i] < blocks[j]
	})
	placed := make([]uint32, 0, len(blocks))
	used := make(map[uint32]bool, len(blocks))
	if len(blocks) > 0 {
		placed = append(placed, blocks[0])
		used[blocks[0]] = true
	}
	for len(placed) < len(blocks) {
		var best uint32
		bestScore := -1.0
		for _, cand := range blocks {
			if used[cand] {
				continue
			}
			score := float64(freq[cand])
			if cfg.AffinityWeight > 0 {
				aff := uint64(0)
				lo := len(placed) - cfg.Window
				if lo < 0 {
					lo = 0
				}
				for _, p := range placed[lo:] {
					aff += affinity[refPairKey(p, cand)]
				}
				score += cfg.AffinityWeight * float64(aff)
			}
			if score > bestScore {
				bestScore = score
				best = cand
			}
		}
		placed = append(placed, best)
		used[best] = true
	}
	return placed
}

func refPairKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

// tiedTrace draws a data trace over a few dozen blocks whose access
// counts come from a small set, so many blocks tie on frequency and the
// affinity term and the address tie-break decide the order. Accesses come
// in short bursts that walk a block's neighbours, which gives the
// affinity graph structure, and a few fetches are mixed in.
func tiedTrace(r *rand.Rand) *trace.Trace {
	nBlocks := 2 + r.Intn(60)
	counts := []int{1, 2, 3, 3, 5, 8}
	var seq []uint32
	for b := 0; b < nBlocks; b++ {
		base := uint32(b) * 256 * uint32(1+r.Intn(3))
		for i := counts[r.Intn(len(counts))]; i > 0; i-- {
			seq = append(seq, base+uint32(r.Intn(64))*4)
		}
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	t := trace.New(len(seq))
	for i, a := range seq {
		if i%7 == 3 {
			t.Append(trace.Access{Addr: a + 0x100000, Kind: trace.Fetch, Width: 4})
		}
		t.Append(trace.Access{Addr: a, Kind: trace.Read, Width: 4})
		// Revisit the previous block now and then so pairs repeat.
		if i > 0 && r.Intn(3) == 0 {
			t.Append(trace.Access{Addr: seq[i-1], Kind: trace.Write, Width: 4})
		}
	}
	return t
}

// sparseTrace draws a data trace over 500 to 700 blocks with a sparse
// affinity graph: a walk that mostly steps from a block to one of its
// three fixed partners and now and then jumps anywhere. Each block gets
// a handful of accesses, so frequencies tie often, and a few fetches
// are mixed in.
func sparseTrace(r *rand.Rand) *trace.Trace {
	nBlocks := 500 + r.Intn(200)
	partners := make([][3]int, nBlocks)
	for i := range partners {
		for k := range partners[i] {
			partners[i][k] = r.Intn(nBlocks)
		}
	}
	stride := 256 * uint32(1+r.Intn(3))
	t := trace.New(8 * nBlocks)
	// Visit every block once, in a random order, so all of them are
	// touched; then walk the partner graph.
	for _, b := range r.Perm(nBlocks) {
		t.Append(trace.Access{Addr: uint32(b) * stride, Kind: trace.Read, Width: 4})
	}
	cur := r.Intn(nBlocks)
	for i := 0; i < 6*nBlocks; i++ {
		if r.Intn(8) == 0 {
			cur = r.Intn(nBlocks)
		} else {
			cur = partners[cur][r.Intn(3)]
		}
		kind := trace.Read
		if r.Intn(4) == 0 {
			kind = trace.Write
		}
		if i%11 == 5 {
			t.Append(trace.Access{Addr: 0x4000000 + uint32(i)*4, Kind: trace.Fetch, Width: 4})
		}
		t.Append(trace.Access{Addr: uint32(cur)*stride + uint32(r.Intn(64))*4, Kind: kind, Width: 4})
	}
	return t
}

// TestClusterMatchesReference: the neighbour-only greedy produces the
// reference order on random traces with tied frequencies and on sparse
// graphs of 500 blocks or more, for windows 1 to 4 and affinity weights
// that are off, small, large and negative (a negative weight disables
// affinity, as 0 does).
func TestClusterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var traces []*trace.Trace
	for trial := 0; trial < 40; trial++ {
		traces = append(traces, tiedTrace(r))
	}
	for trial := 0; trial < 4; trial++ {
		traces = append(traces, sparseTrace(r))
	}
	for trial, tr := range traces {
		for window := 1; window <= 4; window++ {
			for _, w := range []float64{0, 0.05, 1, -0.5} {
				cfg := Config{AffinityWeight: w, Window: window}
				order, err := clusterOrder(tr, 256, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := refOrder(tr, 256, cfg)
				if len(order) != len(want) {
					t.Fatalf("trial %d %+v: %d blocks, reference %d", trial, cfg, len(order), len(want))
				}
				if trial >= 40 && len(want) < 500 {
					t.Fatalf("sparse trial %d touches %d blocks, want at least 500", trial, len(want))
				}
				for i := range want {
					if order[i] != want[i] {
						t.Fatalf("trial %d %+v: order differs at %d:\n got %x\nwant %x", trial, cfg, i, order, want)
					}
				}
			}
		}
	}
}

// TestProfilePhasesMatchConcatenation: profiling an application phase
// by phase gives the profile of its concatenated trace, affinity graph
// included, whatever the split: the pair that straddles a phase
// boundary counts, and empty and fetch-only phases change nothing.
func TestProfilePhasesMatchConcatenation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		whole := tiedTrace(r)
		if trial%5 == 0 {
			whole = sparseTrace(r)
		}
		var phases []*trace.Trace
		for rest := whole.Accesses; ; {
			switch r.Intn(4) {
			case 0:
				phases = append(phases, trace.New(0))
			case 1:
				fetches := trace.New(3)
				for i := 0; i < 3; i++ {
					fetches.Append(trace.Access{Addr: uint32(r.Intn(1 << 20)), Kind: trace.Fetch, Width: 4})
				}
				phases = append(phases, fetches)
			}
			if len(rest) == 0 {
				break
			}
			cut := 1 + r.Intn(len(rest))
			phases = append(phases, &trace.Trace{Accesses: rest[:cut]})
			rest = rest[cut:]
		}
		want, err := NewProfile([]*trace.Trace{whole}, 256)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewProfile(phases, 256)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Bases, want.Bases) || !slices.Equal(got.Blocks, want.Blocks) {
			t.Fatalf("trial %d (%d phases): blocks differ from the concatenated trace's", trial, len(phases))
		}
		for i := range want.Bases {
			if !sameRow(got.row(i), want.row(i)) {
				t.Fatalf("trial %d (%d phases): block %#x neighbours %v, concatenated %v",
					trial, len(phases), want.Bases[i], got.row(i), want.row(i))
			}
		}
	}
}

// sameRow reports whether two affinity rows hold the same edges, in
// any order.
func sameRow(a, b []edge) bool {
	key := func(x, y edge) int { return x.to - y.to }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, key)
	slices.SortFunc(b, key)
	return slices.Equal(a, b)
}
