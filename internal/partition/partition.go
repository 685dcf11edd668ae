// Package partition implements energy-driven multi-bank memory
// partitioning for embedded systems (DATE'03 1B.1 substrate).
//
// Given a per-block access profile of a contiguous memory image, the
// optimizer splits the image into at most K contiguous banks so that total
// memory energy — per-access energy that grows with bank size, bank-select
// decoding, and leakage — is minimized. Hot, small banks serve most
// accesses cheaply; cold data is relegated to large banks that are rarely
// activated. The optimizer is an exact O(B²·K) dynamic program over block
// boundaries.
//
// Bank capacities are rounded up to the next power of two, as real SRAM
// macros are: the rounding wastage is exactly what address clustering
// (package cluster) reduces.
//
//lint:hotpath
package partition

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lpmem/internal/energy"
	"lpmem/internal/trace"
)

// BlockStats holds per-block access counts.
type BlockStats struct {
	Reads  uint64
	Writes uint64
}

// Total returns reads+writes.
func (b BlockStats) Total() uint64 { return b.Reads + b.Writes }

// Spec is a partitioning problem: a contiguous sequence of blocks with
// access statistics.
type Spec struct {
	// BlockSize is the block granularity in bytes (power of two).
	BlockSize uint32
	// Blocks holds per-block statistics; block i covers bytes
	// [i*BlockSize, (i+1)*BlockSize) of the normalized memory image.
	Blocks []BlockStats
	// Cycles is the execution length used to charge leakage.
	Cycles uint64
}

// TotalAccesses returns the total access count across all blocks.
func (s *Spec) TotalAccesses() uint64 {
	var n uint64
	for _, b := range s.Blocks {
		n += b.Total()
	}
	return n
}

// SpecFromTrace builds a Spec from the data accesses of a trace. The
// occupied blocks are compacted in ascending address order (the linker
// view of the memory image). The returned slice maps block index to the
// original block base address, so callers can translate back. blockSize
// must be a power of two; a bad geometry is reported as an error so that
// callers driven by external configuration can recover.
func SpecFromTrace(t *trace.Trace, blockSize uint32, cycles uint64) (*Spec, []uint32, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, nil, fmt.Errorf("partition: block size %d is not a power of two", blockSize)
	}
	type rw struct{ r, w uint64 }
	// Value map with read-modify-write: no per-block pointer allocation
	// while scanning what can be a multi-million-access trace.
	counts := make(map[uint32]rw)
	mask := ^(blockSize - 1)
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		base := a.Addr & mask
		c := counts[base]
		if a.Kind == trace.Write {
			c.w++
		} else {
			c.r++
		}
		counts[base] = c
	}
	bases := make([]uint32, 0, len(counts))
	for b := range counts {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	spec := &Spec{BlockSize: blockSize, Blocks: make([]BlockStats, len(bases)), Cycles: cycles}
	for i, b := range bases {
		spec.Blocks[i] = BlockStats{Reads: counts[b].r, Writes: counts[b].w}
	}
	return spec, bases, nil
}

// Bank is one contiguous memory bank of a partition.
type Bank struct {
	// FirstBlock is the index of the first block held by this bank.
	FirstBlock int
	// NumBlocks is the number of contiguous blocks held.
	NumBlocks int
	// SizeBytes is the physical capacity: NumBlocks*BlockSize rounded up
	// to a power of two.
	SizeBytes uint32
	// Reads and Writes are the access totals served by the bank.
	Reads  uint64
	Writes uint64
}

// Partition is a complete bank assignment.
type Partition struct {
	Banks []Bank
}

// String renders a compact description like "[4KiB:1203 1KiB:9771]".
func (p *Partition) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, b := range p.Banks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(uint64(b.SizeBytes), 10))
		sb.WriteString("B:")
		sb.WriteString(strconv.FormatUint(b.Reads+b.Writes, 10))
	}
	sb.WriteByte(']')
	return sb.String()
}

// pow2Ceil rounds v up to the next power of two (minimum 1).
func pow2Ceil(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	p := uint32(1)
	for p < v {
		p <<= 1
	}
	return p
}

// bankEnergy computes the dynamic energy of serving the given counts from
// a bank of the given physical size.
func bankEnergy(m energy.MemoryModel, size uint32, reads, writes uint64) energy.PJ {
	return m.ReadEnergy(size)*energy.PJ(reads) + m.WriteEnergy(size)*energy.PJ(writes)
}

// Energy returns the total energy of serving the spec with partition p:
// per-bank dynamic energy + bank-select overhead per access + leakage of
// every bank over the run.
func Energy(spec *Spec, p *Partition, m energy.MemoryModel) energy.PJ {
	var e energy.PJ
	for _, b := range p.Banks {
		e += bankEnergy(m, b.SizeBytes, b.Reads, b.Writes)
		e += m.Leakage(b.SizeBytes, spec.Cycles)
	}
	e += m.SelectEnergy(len(p.Banks)) * energy.PJ(spec.TotalAccesses())
	return e
}

// Monolithic returns the single-bank partition covering the whole image.
func Monolithic(spec *Spec) *Partition {
	var reads, writes uint64
	for _, b := range spec.Blocks {
		reads += b.Reads
		writes += b.Writes
	}
	return &Partition{Banks: []Bank{{
		FirstBlock: 0,
		NumBlocks:  len(spec.Blocks),
		SizeBytes:  pow2Ceil(uint32(len(spec.Blocks)) * spec.BlockSize),
		Reads:      reads,
		Writes:     writes,
	}}}
}

// Optimal computes the minimum-energy partition into at most maxBanks
// contiguous banks, via dynamic programming, and returns it with its
// energy. A bank budget below 1 is reported as an error.
func Optimal(spec *Spec, maxBanks int, m energy.MemoryModel) (*Partition, energy.PJ, error) {
	if err := checkBudget(maxBanks, m); err != nil {
		return nil, 0, err
	}
	parts := make([]Partition, 1)
	var e [1]energy.PJ
	optimal(spec, maxBanks, m, parts, e[:])
	return &parts[0], e[0], nil
}

// OptimalUpTo computes the optimum for every bank budget 1..maxBanks
// from one dynamic program: element b-1 of the returned slices is the
// partition and energy Optimal(spec, b, m) returns, bit for bit. A bank
// budget below 1 is reported as an error.
func OptimalUpTo(spec *Spec, maxBanks int, m energy.MemoryModel) ([]Partition, []energy.PJ, error) {
	if err := checkBudget(maxBanks, m); err != nil {
		return nil, nil, err
	}
	parts, es := make([]Partition, maxBanks), make([]energy.PJ, maxBanks)
	optimal(spec, maxBanks, m, parts, es)
	return parts, es, nil
}

// checkBudget validates the arguments Optimal and OptimalUpTo share.
func checkBudget(maxBanks int, m energy.MemoryModel) error {
	if maxBanks < 1 {
		return fmt.Errorf("partition: maxBanks must be >= 1, got %d", maxBanks)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}

// optimal runs the DP to maxBanks banks and fills parts and es with the
// optimum of the last len(parts) budgets in ascending order: element i
// holds budget maxBanks-len(parts)+1+i. An empty spec leaves every
// budget with no banks and no energy.
func optimal(spec *Spec, maxBanks int, m energy.MemoryModel, parts []Partition, es []energy.PJ) {
	n := len(spec.Blocks)
	if n == 0 {
		return
	}
	// Each O(n) slice below is amortised over the O(n²·K) DP that
	// follows, and the logically-2D tables share single flat backings.
	//
	// Prefix sums for O(1) range statistics: pre[0..n] reads, pre[n+1..]
	// writes.
	pre := make([]uint64, 2*(n+1))
	preR, preW := pre[:n+1], pre[n+1:]
	for i, b := range spec.Blocks {
		preR[i+1] = preR[i] + b.Reads
		preW[i+1] = preW[i] + b.Writes
	}
	// Per-length model memos: the energy of one bank holding l blocks
	// depends only on l — and each model term hides a math.Pow — so the
	// O(n²·K) cost evaluations of the DP need just n model evaluations.
	// Lengths whose bank sizes are equal form one size class and share
	// all three terms; runLo[l] is the shortest length in l's class.
	// Classes come from the integer sizes, never from comparing the
	// float memos.
	memo := make([]energy.PJ, 3*(n+1))
	readE, writeE, leakE := memo[:n+1], memo[n+1:2*(n+1)], memo[2*(n+1):]
	runLo := make([]int, n+1)
	prevSize := uint32(0)
	for l := 1; l <= n; l++ {
		size := pow2Ceil(uint32(l) * spec.BlockSize)
		readE[l] = m.ReadEnergy(size)
		writeE[l] = m.WriteEnergy(size)
		leakE[l] = m.Leakage(size, spec.Cycles)
		runLo[l] = l
		if size == prevSize {
			runLo[l] = runLo[l-1]
		}
		prevSize = size
	}

	const inf = energy.PJ(1e30)
	// dp[k][j]: min energy of splitting blocks [0,j) into exactly k
	// banks; cut[k][j] the matching last boundary. Flat row-major tables.
	stride := n + 1
	dp := make([]energy.PJ, (maxBanks+1)*stride)
	cut := make([]int, (maxBanks+1)*stride)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	// blockMin[b] is the least entry of the previous DP row over the
	// 64-aligned block of cut positions b<<6 .. b<<6+63.
	blockMin := make([]energy.PJ, n>>6+1)
	for k := 1; k <= maxBanks; k++ {
		prev, row := dp[(k-1)*stride:k*stride], dp[k*stride:(k+1)*stride]
		cutRow := cut[k*stride : (k+1)*stride]
		for b := range blockMin {
			lo := b << 6
			bm := prev[lo]
			for _, v := range prev[lo:min(lo+64, stride)] {
				if v < bm {
					bm = v
				}
			}
			blockMin[b] = bm
		}
		for j := 1; j <= n; j++ {
			// ub is the exact cost, in this column, of the previous
			// column's cut: a candidate here too, so row[j] ends at or
			// below it.
			ub := inf
			if row[j-1] < inf {
				i := cutRow[j-1]
				ub = prev[i] + readE[j-i]*energy.PJ(preR[j]-preR[i]) +
					writeE[j-i]*energy.PJ(preW[j]-preW[i]) +
					leakE[j-i]
			}
			for i := k - 1; i < j; {
				// Candidates [i, end) share one size class and one
				// 64-aligned block. Each term of their cost is
				// non-negative and at least the matching term of lb,
				// which takes the block's least prev and the counts of
				// the shortest bank, [end-1, j). Rounding is monotone,
				// so no candidate costs less than lb. lb has the same
				// shape as the cost, so targets that fuse multiply-adds
				// round both alike. When lb >= row[j] none beats the
				// running minimum; when lb > ub none is the final one.
				l := j - i
				end := min(j-runLo[l]+1, (i|63)+1)
				e := end - 1
				lb := blockMin[i>>6] + readE[l]*energy.PJ(preR[j]-preR[e]) +
					writeE[l]*energy.PJ(preW[j]-preW[e]) +
					leakE[l]
				if lb >= row[j] || lb > ub {
					i = end
					continue
				}
				for ; i < end; i++ {
					if prev[i] >= inf {
						continue
					}
					// cost(i,j): energy of one bank holding blocks [i,j),
					// including its leakage (select overhead depends on
					// the final bank count and is added per k below).
					c := prev[i] + readE[j-i]*energy.PJ(preR[j]-preR[i]) +
						writeE[j-i]*energy.PJ(preW[j]-preW[i]) +
						leakE[j-i]
					if c < row[j] {
						row[j] = c
						cutRow[j] = i
					}
				}
			}
		}
	}
	// Budget b's optimum is the first cheapest bank count k <= b. Row k
	// of the DP reads only row k-1, so rows 1..b are the same whatever
	// the budget, and after step k of a running best over ascending k,
	// with a strict <, (bestK, bestE) is budget k's pick. Budget b uses
	// at most b banks, so one backing holds every rebuilt budget.
	first := maxBanks - len(parts) + 1
	backing := make([]Bank, len(parts)*(first+maxBanks)/2)
	total := spec.TotalAccesses()
	bestK, bestE := 1, inf
	for k := 1; k <= maxBanks; k++ {
		if dp[k*stride+n] < inf {
			e := dp[k*stride+n] + m.SelectEnergy(k)*energy.PJ(total)
			if e < bestE {
				bestE = e
				bestK = k
			}
		}
		if k < first {
			continue
		}
		// Reconstruct budget k's cuts, last bank first.
		banks := backing[:bestK:bestK]
		backing = backing[bestK:]
		j := n
		for bank := bestK - 1; bank >= 0; bank-- {
			i := cut[(bank+1)*stride+j]
			banks[bank] = Bank{
				FirstBlock: i,
				NumBlocks:  j - i,
				SizeBytes:  pow2Ceil(uint32(j-i) * spec.BlockSize),
				Reads:      preR[j] - preR[i],
				Writes:     preW[j] - preW[i],
			}
			j = i
		}
		parts[k-first] = Partition{Banks: banks}
		es[k-first] = bestE
	}
}
