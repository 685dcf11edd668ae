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
//  1. Profile the application at block granularity (NewProfile): one
//     pass over the data accesses of its phases, in the order they run,
//     counts each block's reads and writes and builds a temporal-affinity
//     graph (how often two blocks are touched by consecutive accesses,
//     across phase boundaries too).
//  2. Order blocks greedily (Profile.Order): start from the hottest block,
//     then repeatedly append the unplaced block with the best combination
//     of affinity to the recently placed blocks and own frequency. Only
//     the window's unplaced neighbours and the hottest unplaced block
//     outside them can win a round, so only those are scored.
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
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"lpmem/internal/partition"
	"lpmem/internal/trace"
)

// Config tunes the clustering heuristic.
type Config struct {
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
	return Config{AffinityWeight: 0.05, Window: 2}
}

// Profile is the block-level profile of an application's data accesses.
// Its blocks are the ones the accesses touch, in ascending address
// order: block i starts at Bases[i] and its access counts are Blocks[i],
// so Blocks is the partitioning spec of the compacted image a linker lays
// out.
type Profile struct {
	Bases  []uint32
	Blocks []partition.BlockStats
	// The affinity graph as compressed sparse rows: block i's neighbours
	// are edges[start[i]:start[i+1]], one edge array of 2·|pairs| entries.
	start []int
	edges []edge
}

// edge is one entry of a CSR affinity row: the neighbour block's index
// and the pair's affinity count.
type edge struct {
	to     int
	weight uint64
}

// NewProfile profiles the data accesses of an application's phases, its
// part traces in the order they run, in one pass. The phases run back to
// back in one address space, so the last data block of a phase and the
// first of the next count as consecutive: the profile is that of the
// concatenated trace, which is never built. Accesses that stay in the
// previous access's block only bump its counts; a move to another block
// looks the block and the pair up in hash tables that grow with the
// distinct blocks and pairs, so nothing is allocated per access. A block
// size that is not a power of two is reported as an error so callers
// driven by external configuration can recover.
func NewProfile(phases []*trace.Trace, blockSize uint32) (*Profile, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("cluster: block size %d is not a power of two", blockSize)
	}
	shift := bits.TrailingZeros32(blockSize)
	// Blocks (keyed by block number) and pairs are numbered in
	// first-touch order while scanning.
	var blocks denseIndex[partition.BlockStats]
	var pairs denseIndex[uint64]
	prev, prevBlock := -1, uint32(0)
	for _, t := range phases {
		for _, a := range t.Accesses {
			if a.Kind == trace.Fetch {
				continue
			}
			if b := a.Addr >> shift; prev < 0 || b != prevBlock {
				id := blocks.number(uint64(b))
				if prev >= 0 {
					pairs.vals[pairs.number(pairKey(prev, id))]++
				}
				prev, prevBlock = id, b
			}
			if a.Kind == trace.Write {
				blocks.vals[prev].Writes++
			} else {
				blocks.vals[prev].Reads++
			}
		}
	}

	// Renumber the blocks in address order.
	n := len(blocks.keys)
	byAddr := make([]int, n)
	for i := range byAddr {
		byAddr[i] = i
	}
	slices.SortFunc(byAddr, func(a, b int) int { return cmp.Compare(blocks.keys[a], blocks.keys[b]) })
	p := &Profile{
		Bases:  make([]uint32, n),
		Blocks: make([]partition.BlockStats, n),
		start:  make([]int, n+1),
		edges:  make([]edge, 2*len(pairs.keys)),
	}
	pos := make([]int, n)
	for i, id := range byAddr {
		pos[id] = i
		p.Bases[i] = uint32(blocks.keys[id]) << shift
		p.Blocks[i] = blocks.vals[id]
	}
	// Lay the pairs out as CSR rows over the address-order indices.
	for _, k := range pairs.keys {
		p.start[pos[k>>32]+1]++
		p.start[pos[uint32(k)]+1]++
	}
	for i := 0; i < n; i++ {
		p.start[i+1] += p.start[i]
	}
	fill := make([]int, n)
	copy(fill, p.start[:n])
	for i, k := range pairs.keys {
		a, b := pos[k>>32], pos[uint32(k)]
		p.edges[fill[a]] = edge{b, pairs.vals[i]}
		fill[a]++
		p.edges[fill[b]] = edge{a, pairs.vals[i]}
		fill[b]++
	}
	return p, nil
}

// pairKey packs an unordered pair of block numbers below 2³² into one
// key, the smaller number in the high half.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Order returns the clustered block order as indices into p's blocks:
// the i-th entry is the block placed at clustered index i.
//
// The greedy starts from the hottest block and places one block per
// round: the unplaced block with the highest score, frequency plus
// AffinityWeight times its affinity to the last Window placed blocks,
// ties going to the block first in frequency-descending, address-
// ascending rank. win[j] holds block j's affinity to the window, kept up
// to date by adding the row of each placed block and subtracting the row
// of the block that slides out. An unplaced block outside the window's
// rows scores its bare frequency, so of those only the first in rank
// order can win: a round scores the window's unplaced neighbours and
// that one block, which a linked list of the unplaced blocks in rank
// order finds past the neighbours at its head. A zero or negative weight
// skips affinity, which makes the order the rank order.
func (p *Profile) Order(cfg Config) []int {
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	n := len(p.Blocks)
	order := make([]int, 0, n)
	if n == 0 {
		return order
	}
	f := make([]float64, n)
	byRank := make([]int, n)
	for i, b := range p.Blocks {
		f[i] = float64(b.Total())
		byRank[i] = i
	}
	// Blocks are in address order, so a stable sort breaks frequency
	// ties by address.
	slices.SortStableFunc(byRank, func(a, b int) int { return cmp.Compare(p.Blocks[b].Total(), p.Blocks[a].Total()) })
	rankOf := make([]int, n)
	for r, i := range byRank {
		rankOf[i] = r
	}
	// The unplaced blocks as a doubly linked list over ranks, with n as
	// both ends' sentinel.
	next, prev := make([]int, n+1), make([]int, n+1)
	for r := 0; r <= n; r++ {
		next[r], prev[r] = (r+1)%(n+1), (r+n)%(n+1)
	}
	useAffinity := cfg.AffinityWeight > 0
	used := make([]bool, n)
	win := make([]uint64, n)
	for cur := byRank[0]; ; {
		used[cur] = true
		order = append(order, cur)
		r := rankOf[cur]
		next[prev[r]], prev[next[r]] = next[r], prev[r]
		if useAffinity {
			for _, e := range p.row(cur) {
				win[e.to] += e.weight
			}
			if out := len(order) - 1 - cfg.Window; out >= 0 {
				for _, e := range p.row(order[out]) {
					win[e.to] -= e.weight
				}
			}
		}
		if len(order) == n {
			return order
		}
		// The first unplaced block without window affinity. Blocks it
		// passes have some, so they are scored below with the window's
		// neighbours.
		r = next[n]
		for r != n && win[byRank[r]] > 0 {
			r = next[r]
		}
		best, bestScore := -1, -1.0
		if r != n {
			best = byRank[r]
			bestScore = f[best] + cfg.AffinityWeight*float64(win[best])
		}
		if !useAffinity {
			cur = best
			continue
		}
		for _, w := range order[max(0, len(order)-cfg.Window):] {
			for _, e := range p.row(w) {
				j := e.to
				if used[j] {
					continue
				}
				score := f[j] + cfg.AffinityWeight*float64(win[j])
				//lint:allow floatcompare an exact tie goes to the lower rank, as in a scan of all blocks in rank order with a strict >
				if score > bestScore || score == bestScore && rankOf[j] < rankOf[best] {
					best, bestScore = j, score
				}
			}
		}
		cur = best
	}
}

// row returns block i's affinity edges.
func (p *Profile) row(i int) []edge { return p.edges[p.start[i]:p.start[i+1]] }

// denseIndex numbers distinct uint64 keys 0, 1, 2, … in first-seen
// order and keeps a value per key, zero when the key is numbered. It is
// an open-addressing hash table with linear probing over a power-of-two
// slot array kept at most half full; a slot holds its key's number plus
// one, and 0 marks it empty.
type denseIndex[V any] struct {
	// keys[i] is the key numbered i, and vals[i] its value.
	keys  []uint64
	vals  []V
	slots []int32
	// shift keeps the top log2(len(slots)) bits of a key's product with
	// the 64-bit golden ratio, its home slot.
	shift int
}

// number returns key's number, numbering it len(keys) when it is new.
func (x *denseIndex[V]) number(key uint64) int {
	if 2*len(x.keys) >= len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for h := int(key * 0x9e3779b97f4a7c15 >> x.shift); ; h = (h + 1) & mask {
		s := x.slots[h]
		if s == 0 {
			var zero V
			x.keys = append(x.keys, key)
			x.vals = append(x.vals, zero)
			x.slots[h] = int32(len(x.keys))
			return len(x.keys) - 1
		}
		if x.keys[s-1] == key {
			return int(s - 1)
		}
	}
}

// grow doubles the slot array (to 64 slots at first) and reinserts
// every key.
func (x *denseIndex[V]) grow() {
	size := max(64, 2*len(x.slots))
	//lint:allow hotalloc doubling: O(log n) slot arrays per index
	x.slots = make([]int32, size)
	x.shift = 64 - bits.TrailingZeros(uint(size))
	mask := size - 1
	for i, key := range x.keys {
		h := int(key * 0x9e3779b97f4a7c15 >> x.shift)
		for x.slots[h] != 0 {
			h = (h + 1) & mask
		}
		x.slots[h] = int32(i + 1)
	}
}
