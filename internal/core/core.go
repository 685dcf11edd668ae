// Package core is the public heart of the library: it composes address
// clustering (internal/cluster) with energy-driven memory partitioning
// (internal/partition) into the optimization flow evaluated in DATE'03
// 1B.1, and reports the three-way energy comparison the paper's table is
// built from: monolithic memory vs partitioned memory vs partitioned
// memory with address clustering.
package core

import (
	"fmt"

	"lpmem/internal/cluster"
	"lpmem/internal/energy"
	"lpmem/internal/partition"
	"lpmem/internal/trace"
)

// Options configures an optimization run.
type Options struct {
	// BlockSize is the clustering/partitioning granularity in bytes.
	BlockSize uint32
	// MaxBanks bounds the number of memory banks the partitioner may use.
	MaxBanks int
	// Model is the SRAM energy model.
	Model energy.MemoryModel
	// Cluster tunes the clustering heuristic.
	Cluster cluster.Config
	// RemapEnergy is the per-access cost charged for the clustering
	// translation hardware (a small combinational block-index table), so
	// reported savings are net of the added hardware. Zero disables the
	// charge.
	RemapEnergy energy.PJ
}

// DefaultOptions returns the configuration used by the E1 experiment.
func DefaultOptions() Options {
	return Options{
		BlockSize:   64,
		MaxBanks:    4,
		Model:       energy.DefaultMemoryModel(),
		Cluster:     cluster.DefaultConfig(),
		RemapEnergy: 0.05,
	}
}

// Report is the outcome of one optimization run.
type Report struct {
	// MonolithicE is the energy of serving the trace from one big SRAM.
	MonolithicE energy.PJ
	// PartitionedE is the energy after optimal partitioning of the
	// unclustered (linker-order) image — the paper's baseline.
	PartitionedE energy.PJ
	// ClusteredE is the energy after clustering then partitioning,
	// including the remap-table overhead if charged.
	ClusteredE energy.PJ
	// ClusteredPartition is the bank layout of the clustered image.
	ClusteredPartition *partition.Partition
}

// SavingVsPartitioned returns the headline metric of the paper: percent
// energy saved by clustering relative to partitioning alone.
func (r *Report) SavingVsPartitioned() float64 {
	if r.PartitionedE == 0 {
		return 0
	}
	return 100 * float64(r.PartitionedE-r.ClusteredE) / float64(r.PartitionedE)
}

// SavingVsMonolithic returns percent energy saved by the full flow
// relative to a monolithic memory.
func (r *Report) SavingVsMonolithic() float64 {
	if r.MonolithicE == 0 {
		return 0
	}
	return 100 * float64(r.MonolithicE-r.ClusteredE) / float64(r.MonolithicE)
}

// String summarises the report.
func (r *Report) String() string {
	return fmt.Sprintf("mono=%.0f part=%.0f clust=%.0f (%.1f%% vs part)",
		float64(r.MonolithicE), float64(r.PartitionedE), float64(r.ClusteredE),
		r.SavingVsPartitioned())
}

// Optimize runs the full flow on the data accesses of t. cycles is the
// execution length of the run (for leakage). Invalid options (a block
// size that is not a power of two, a bank budget below 1) are reported
// as errors rather than panics, so services driving the flow from
// external configuration fail one request instead of the process. It is
// the one-phase case of OptimizePhases.
func Optimize(t *trace.Trace, cycles uint64, opt Options) (*Report, error) {
	return OptimizePhases([]*trace.Trace{t}, cycles, opt)
}

// OptimizePhases runs the full flow on an application made of phases,
// its part traces running back to back in one address space, and
// reports what Optimize reports on their concatenation, which it never
// builds. cycles is the whole application's execution length.
//
// The application is profiled once, phase by phase. The baseline is the
// profile in address order, the compacted image a linker gives.
// Clustering permutes whole blocks, so the clustered image's profile is
// the same block statistics placed in cluster order.
func OptimizePhases(phases []*trace.Trace, cycles uint64, opt Options) (*Report, error) {
	prof, err := cluster.NewProfile(phases, opt.BlockSize)
	if err != nil {
		return nil, err
	}
	base := &partition.Spec{BlockSize: opt.BlockSize, Blocks: prof.Blocks, Cycles: cycles}
	monoE := partition.Energy(base, partition.Monolithic(base), opt.Model)
	_, baseE, err := partition.Optimal(base, opt.MaxBanks, opt.Model)
	if err != nil {
		return nil, err
	}

	order := prof.Order(opt.Cluster)
	clSpec := &partition.Spec{BlockSize: opt.BlockSize, Blocks: make([]partition.BlockStats, len(order)), Cycles: cycles}
	for i, j := range order {
		clSpec.Blocks[i] = prof.Blocks[j]
	}
	clPart, clE, err := partition.Optimal(clSpec, opt.MaxBanks, opt.Model)
	if err != nil {
		return nil, err
	}
	clE += opt.RemapEnergy * energy.PJ(clSpec.TotalAccesses())

	return &Report{
		MonolithicE:        monoE,
		PartitionedE:       baseE,
		ClusteredE:         clE,
		ClusteredPartition: clPart,
	}, nil
}
