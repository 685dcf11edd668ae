// Package cluster implements address clustering, the primary contribution
// reproduced by this repository (DATE'03 1B.1, Macii/Macii/Poncino:
// "Improving the Efficiency of Memory Partitioning by Address Clustering").
//
// Memory partitioning exploits the spatial locality of an access profile;
// its efficiency is limited when hot and cold blocks are interleaved in
// the address space, because banks must be contiguous. Address clustering
// inserts a (hardware) address-translation stage that permutes the memory
// image at block granularity so that frequently accessed blocks — and
// blocks that are accessed close together in time — become contiguous.
// The partitioner can then carve small, hot banks and large, cold ones,
// cutting energy per access.
//
// The algorithm:
//
//  1. Profile the trace at block granularity: per-block access frequency
//     and a temporal-affinity graph (how often two blocks are touched by
//     consecutive accesses).
//  2. Order blocks greedily: start from the hottest block, then repeatedly
//     append the unplaced block with the best combination of affinity to
//     the recently placed blocks and own frequency.
//  3. Emit the block order: the permutation of the memory image. Package
//     core applies it to the block profile, placing each block's access
//     counts at its clustered position, so no trace is rewritten.
//
// The permutation is realized in hardware as a small block-index
// translation table; core charges its per-access energy.
//
//lint:hotpath
package cluster

import (
	"fmt"
	"sort"

	"lpmem/internal/trace"
)

// Config tunes the clustering heuristic.
type Config struct {
	// BlockSize is the clustering granularity; must be a power of two.
	BlockSize uint32
	// AffinityWeight balances temporal affinity against raw frequency
	// when choosing the next block. 0 degenerates to pure
	// frequency-descending ordering. The paper's profile-driven
	// heuristic corresponds to a positive weight; 1 works well.
	AffinityWeight float64
	// Window is how many recently placed blocks contribute affinity
	// when scoring a candidate. 1..4 are sensible; 2 is the default.
	Window int
}

// DefaultConfig returns the configuration used by the experiments.
// Frequency dominates the ordering; affinity only nudges blocks that are
// used together toward each other. A large affinity weight would let cold
// blocks ride along with hot partners and destroy the heat gradient the
// partitioner feeds on.
func DefaultConfig() Config {
	return Config{BlockSize: 256, AffinityWeight: 0.05, Window: 2}
}

// Cluster orders the blocks touched by the data accesses of t: it
// returns their base addresses in clustered order, so the i-th entry is
// the block placed at clustered index i. A block size that is not a power
// of two is reported as an error so callers driven by external
// configuration can recover.
func Cluster(t *trace.Trace, cfg Config) ([]uint32, error) {
	if cfg.BlockSize == 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("cluster: block size %d is not a power of two", cfg.BlockSize)
	}
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
			k := pairKey(prev, b)
			affinity[k]++
		}
		prev = b
		havePrev = true
	}

	blocks := make([]uint32, 0, len(freq))
	for b := range freq {
		blocks = append(blocks, b)
	}
	// Deterministic starting order: frequency descending, address
	// ascending on ties.
	sort.Slice(blocks, func(i, j int) bool {
		fi, fj := freq[blocks[i]], freq[blocks[j]]
		if fi != fj {
			return fi > fj
		}
		return blocks[i] < blocks[j]
	})

	return greedyOrder(blocks, freq, affinity, cfg), nil
}

// greedyOrder runs the greedy placement on dense indices into blocks:
// frequencies and the used set are flat slices, the affinity graph is a
// CSR adjacency (one backing array of edges plus per-block row offsets),
// and win[j] holds block j's affinity to the current window, kept up to
// date by adding the row of each placed block and subtracting the row of
// the block that slides out. Candidates are scanned in blocks order and
// scored with the same expression as a per-candidate window sum, so ties
// break the same way.
func greedyOrder(blocks []uint32, freq map[uint32]uint64, affinity map[[2]uint32]uint64, cfg Config) []uint32 {
	n := len(blocks)
	placed := make([]uint32, n)
	if n == 0 {
		return placed
	}
	index := make(map[uint32]int, n)
	f := make([]float64, n)
	for i, b := range blocks {
		index[b] = i
		f[i] = float64(freq[b])
	}
	useAffinity := cfg.AffinityWeight > 0
	var start []int
	var edges []edge
	if useAffinity {
		start, edges = csr(n, index, affinity)
	}
	used := make([]bool, n)
	win := make([]uint64, n)
	order := make([]int, 0, n)
	// Start from the hottest block; each round places one block, slides
	// the window, then scores all unplaced blocks against it.
	for next := 0; ; {
		used[next] = true
		order = append(order, next)
		if useAffinity {
			for _, e := range edges[start[next]:start[next+1]] {
				win[e.to] += e.weight
			}
			if out := len(order) - 1 - cfg.Window; out >= 0 {
				o := order[out]
				for _, e := range edges[start[o]:start[o+1]] {
					win[e.to] -= e.weight
				}
			}
		}
		if len(order) == n {
			break
		}
		bestScore := -1.0
		for j := range blocks {
			if used[j] {
				continue
			}
			score := f[j]
			if useAffinity {
				score += cfg.AffinityWeight * float64(win[j])
			}
			if score > bestScore {
				bestScore = score
				next = j
			}
		}
	}
	for i, j := range order {
		placed[i] = blocks[j]
	}
	return placed
}

// edge is one entry of a CSR affinity row: the neighbour block's dense
// index and the pair's affinity count.
type edge struct {
	to     int
	weight uint64
}

// csr lays the symmetric affinity graph out as compressed sparse rows:
// block i's neighbours are edges[start[i]:start[i+1]].
func csr(n int, index map[uint32]int, affinity map[[2]uint32]uint64) ([]int, []edge) {
	start := make([]int, n+1)
	for k := range affinity {
		start[index[k[0]]+1]++
		start[index[k[1]]+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	edges := make([]edge, 2*len(affinity))
	fill := make([]int, n)
	copy(fill, start[:n])
	for k, w := range affinity {
		a, b := index[k[0]], index[k[1]]
		edges[fill[a]] = edge{b, w}
		fill[a]++
		edges[fill[b]] = edge{a, w}
		fill[b]++
	}
	return start, edges
}

func pairKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}
