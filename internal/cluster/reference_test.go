package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"lpmem/internal/trace"
)

// refOrder is the direct map-based form of the greedy: every round
// rescores each unplaced block through freq, used and affinity map
// lookups against the last Window placed blocks. The dense greedy must
// produce the same order.
func refOrder(t *trace.Trace, cfg Config) []uint32 {
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	mask := ^(cfg.BlockSize - 1)
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
			affinity[pairKey(prev, b)]++
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
					aff += affinity[pairKey(p, cand)]
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

// TestClusterMatchesReference: the dense greedy produces the reference
// order on random traces with tied frequencies, for windows 1 to 4 and
// affinity weights that are off, small, large and negative (a negative
// weight disables affinity, as 0 does).
func TestClusterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		tr := tiedTrace(r)
		for window := 1; window <= 4; window++ {
			for _, w := range []float64{0, 0.05, 1, -0.5} {
				cfg := Config{BlockSize: 256, AffinityWeight: w, Window: window}
				order, err := Cluster(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := refOrder(tr, cfg)
				if len(order) != len(want) {
					t.Fatalf("trial %d %+v: %d blocks, reference %d", trial, cfg, len(order), len(want))
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
