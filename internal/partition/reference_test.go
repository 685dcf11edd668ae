package partition

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/testutil"
)

// refOptimal is the exhaustive DP the bound-pruned one replaced: every
// (k, j) cell scans every cut i in ascending order. The pruned DP must
// return the same partition and the same energy bits.
func refOptimal(spec *Spec, maxBanks int, m energy.MemoryModel) (*Partition, energy.PJ) {
	n := len(spec.Blocks)
	if n == 0 {
		return &Partition{}, 0
	}
	preR := make([]uint64, n+1)
	preW := make([]uint64, n+1)
	for i, b := range spec.Blocks {
		preR[i+1] = preR[i] + b.Reads
		preW[i+1] = preW[i] + b.Writes
	}
	readE := make([]energy.PJ, n+1)
	writeE := make([]energy.PJ, n+1)
	leakE := make([]energy.PJ, n+1)
	for l := 1; l <= n; l++ {
		size := pow2Ceil(uint32(l) * spec.BlockSize)
		readE[l] = m.ReadEnergy(size)
		writeE[l] = m.WriteEnergy(size)
		leakE[l] = m.Leakage(size, spec.Cycles)
	}
	const inf = energy.PJ(1e30)
	stride := n + 1
	dp := make([]energy.PJ, (maxBanks+1)*stride)
	cut := make([]int, (maxBanks+1)*stride)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for k := 1; k <= maxBanks; k++ {
		prev, row := dp[(k-1)*stride:k*stride], dp[k*stride:(k+1)*stride]
		cutRow := cut[k*stride : (k+1)*stride]
		for j := 1; j <= n; j++ {
			for i := k - 1; i < j; i++ {
				if prev[i] >= inf {
					continue
				}
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
	total := spec.TotalAccesses()
	bestK, bestE := 1, inf
	for k := 1; k <= maxBanks; k++ {
		if dp[k*stride+n] >= inf {
			continue
		}
		e := dp[k*stride+n] + m.SelectEnergy(k)*energy.PJ(total)
		if e < bestE {
			bestE = e
			bestK = k
		}
	}
	banks := make([]Bank, bestK)
	j := n
	for k := bestK; k >= 1; k-- {
		i := cut[k*stride+j]
		banks[k-1] = Bank{
			FirstBlock: i,
			NumBlocks:  j - i,
			SizeBytes:  pow2Ceil(uint32(j-i) * spec.BlockSize),
			Reads:      preR[j] - preR[i],
			Writes:     preW[j] - preW[i],
		}
		j = i
	}
	return &Partition{Banks: banks}, bestE
}

// tieModel prices every access at dyadic rationals (SizeExp 1, equal
// read and write terms), so costs are exact and distinct cuts often tie:
// the first-argmin rule then decides the partition.
func tieModel() energy.MemoryModel {
	return energy.MemoryModel{
		ReadE0: 1, WriteE0: 1, KSize: 1.0 / 64, SizeExp: 1, WritePenalty: 1,
		LeakPerByteCycle: 1.0 / 1024, DecoderE: 0.25,
	}
}

// refSpec draws a spec of up to 300 blocks, spanning several 64-wide
// sub-ranges and size classes. Counts are drawn from one of three
// regimes: skewed hot/cold, small integers with many zeros (ties), or a
// few repeated values.
func refSpec(r *rand.Rand) *Spec {
	n := 1 + r.Intn(300)
	spec := &Spec{
		BlockSize: uint32(16) << r.Intn(8),
		Blocks:    make([]BlockStats, n),
		Cycles:    uint64(r.Intn(1 << 12)),
	}
	regime := r.Intn(3)
	for i := range spec.Blocks {
		var b BlockStats
		switch regime {
		case 0:
			if r.Intn(6) == 0 {
				b = BlockStats{Reads: uint64(r.Intn(100000)), Writes: uint64(r.Intn(20000))}
			} else {
				b = BlockStats{Reads: uint64(r.Intn(200)), Writes: uint64(r.Intn(50))}
			}
		case 1:
			b = BlockStats{Reads: uint64(r.Intn(3)), Writes: uint64(r.Intn(2))}
		default:
			v := uint64([]int{0, 4, 16}[r.Intn(3)])
			b = BlockStats{Reads: v, Writes: v / 4}
		}
		spec.Blocks[i] = b
	}
	return spec
}

// sameOptimum fails the test unless p and e are the reference partition
// and energy, bit for bit.
func sameOptimum(t *testing.T, what string, p *Partition, e energy.PJ, wantP *Partition, wantE energy.PJ) {
	t.Helper()
	if math.Float64bits(float64(e)) != math.Float64bits(float64(wantE)) {
		t.Fatalf("%s: energy %v, reference %v", what, e, wantE)
	}
	if !reflect.DeepEqual(p, wantP) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, p.Banks, wantP.Banks)
	}
}

// TestOptimalMatchesReference: the bound-pruned DP returns the
// reference partition and bit-identical energy on random specs, bank
// budgets 1 to 8 and three model families: the default, perturbed
// defaults and the exact tie-prone model. On the same specs, OptimalUpTo
// returns the reference optimum of every budget up to 12.
func TestOptimalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		spec := refSpec(r)
		var m energy.MemoryModel
		switch trial % 3 {
		case 0:
			m = energy.DefaultMemoryModel()
		case 1:
			m = testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		default:
			m = tieModel()
		}
		maxBanks := 1 + r.Intn(8)
		p, e, err := Optimal(spec, maxBanks, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantP, wantE := refOptimal(spec, maxBanks, m)
		sameOptimum(t, fmt.Sprintf("trial %d (%d blocks, budget %d)", trial, len(spec.Blocks), maxBanks), p, e, wantP, wantE)

		// Deriving the frontier's size from the trial, not from r, keeps
		// the specs above the ones Optimal has always been checked on.
		upTo := maxBanks + trial%5
		parts, es, err := OptimalUpTo(spec, upTo, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(parts) != upTo || len(es) != upTo {
			t.Fatalf("trial %d: OptimalUpTo(%d) returned %d partitions, %d energies", trial, upTo, len(parts), len(es))
		}
		for b := 1; b <= upTo; b++ {
			wantP, wantE := refOptimal(spec, b, m)
			sameOptimum(t, fmt.Sprintf("trial %d (%d blocks): OptimalUpTo(%d) budget %d", trial, len(spec.Blocks), upTo, b), &parts[b-1], es[b-1], wantP, wantE)
		}
	}
}

// TestOptimalUpToEdgeCases covers what the random specs do not: the
// empty spec, a one-budget frontier, an invalid budget, and an exact tie
// between bank counts, which the first (smallest) count must win for
// every budget.
func TestOptimalUpToEdgeCases(t *testing.T) {
	check := func(name string, spec *Spec, upTo int, m energy.MemoryModel) []Partition {
		t.Helper()
		parts, es, err := OptimalUpTo(spec, upTo, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(parts) != upTo || len(es) != upTo {
			t.Fatalf("%s: %d partitions, %d energies for %d budgets", name, len(parts), len(es), upTo)
		}
		for b := 1; b <= upTo; b++ {
			wantP, wantE := refOptimal(spec, b, m)
			sameOptimum(t, fmt.Sprintf("%s budget %d", name, b), &parts[b-1], es[b-1], wantP, wantE)
		}
		return parts
	}
	check("empty spec", &Spec{BlockSize: 64}, 3, energy.DefaultMemoryModel())
	check("one budget", refSpec(rand.New(rand.NewSource(2))), 1, energy.DefaultMemoryModel())

	// Two blocks, 4 reads and nothing, no leakage: one 32-byte bank costs
	// 4x1.5 = 6; two 16-byte banks cost 4x1.25 plus a 0.25 decoder charge
	// per access, also 6.
	tie := &Spec{BlockSize: 16, Blocks: []BlockStats{{Reads: 4}, {}}}
	for b, p := range check("tie", tie, 3, tieModel()) {
		if len(p.Banks) != 1 {
			t.Fatalf("tie budget %d: %d banks, want the first cheapest count, 1", b+1, len(p.Banks))
		}
	}

	if _, _, err := OptimalUpTo(tie, 0, tieModel()); err == nil {
		t.Fatal("OptimalUpTo accepted a zero bank budget")
	}
}
