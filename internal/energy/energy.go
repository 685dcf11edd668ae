// Package energy provides the analytical energy models shared by every
// experiment in the repository.
//
// The models are deliberately simple, monotone and calibrated to the shape
// of published CACTI-style data: per-access energy of an SRAM grows as a
// power law of its capacity (exponent ~0.7, between bit-line-length sqrt
// scaling and the near-linear growth of published 0.18 µm fits), leakage
// grows linearly with capacity, and bus energy is proportional to the
// number of line transitions. The DATE'03 abstracts report *relative*
// savings (technique vs baseline); those ratios are preserved under any
// monotone model, which is what makes this substitution sound (see
// DESIGN.md, "Substitutions").
//
// All energies are expressed in PJ, a normalised picojoule-like unit.
package energy

import (
	"fmt"
	"math"
	"math/bits"
)

// PJ is a normalised energy value (picojoule-like unit).
type PJ float64

// String formats the energy with a unit suffix.
func (e PJ) String() string { return fmt.Sprintf("%.3f pJ", float64(e)) }

// MemoryModel computes per-access and leakage energy for an SRAM of a given
// capacity. The zero value is not useful; use DefaultMemoryModel or build
// one explicitly.
type MemoryModel struct {
	// ReadE0 is the fixed per-read energy floor (sense amps, decoder).
	ReadE0 PJ
	// WriteE0 is the fixed per-write energy floor.
	WriteE0 PJ
	// KSize scales the capacity-dependent term: K * bytes^SizeExp.
	KSize PJ
	// SizeExp is the capacity exponent; 0.7 matches the super-sqrt
	// growth of published 0.18 µm embedded-SRAM energy fits.
	SizeExp float64
	// WritePenalty multiplies the size-dependent term for writes
	// (full-swing bit lines).
	WritePenalty float64
	// LeakPerByteCycle is the static energy per byte per cycle.
	LeakPerByteCycle PJ
	// DecoderE is the energy of the bank-select decoder per access to a
	// partitioned memory; it grows with log2(#banks).
	DecoderE PJ
}

// DefaultMemoryModel returns the model used by all experiments unless a
// test overrides it. Constants are calibrated so a 1 KiB macro costs about
// 3.5 units per read and a 64 KiB macro about 13x that, matching the
// relative spread of published 0.18 µm SRAM data.
func DefaultMemoryModel() MemoryModel {
	return MemoryModel{
		ReadE0:           1.0,
		WriteE0:          1.1,
		KSize:            0.02,
		SizeExp:          0.7,
		WritePenalty:     1.25,
		LeakPerByteCycle: 0.00002,
		DecoderE:         0.15,
	}
}

// DefaultSizeExp is the capacity exponent substituted when a model is
// used with SizeExp left at its zero value. It exists only to keep
// hand-rolled literal models (tests, examples) physically shaped; any
// model that reaches a consumer through Validate must set SizeExp
// explicitly, because Validate rejects the zero value.
const DefaultSizeExp = 0.7

// Validate reports whether the model's parameters are usable: every
// field must be a positive, finite number. The zero value of any field
// is rejected — in particular a zero SizeExp, which sizeTerm would
// otherwise silently replace with DefaultSizeExp. Model consumers
// (partition.Optimal, stackmem.Simulate, memtech.New) call this before
// pricing anything, so a half-initialised model fails loudly instead of
// producing plausible-but-wrong tables.
func (m MemoryModel) Validate() error {
	fields := []struct {
		name string
		v    float64
	}{
		{"ReadE0", float64(m.ReadE0)},
		{"WriteE0", float64(m.WriteE0)},
		{"KSize", float64(m.KSize)},
		{"SizeExp", m.SizeExp},
		{"WritePenalty", m.WritePenalty},
		{"LeakPerByteCycle", float64(m.LeakPerByteCycle)},
		{"DecoderE", float64(m.DecoderE)},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("energy: MemoryModel.%s is %v; want a finite positive value", f.name, f.v)
		}
		if f.v <= 0 {
			return fmt.Errorf("energy: MemoryModel.%s = %v; zero or negative fields are rejected (a zero-value model is not usable — start from DefaultMemoryModel)", f.name, f.v)
		}
	}
	return nil
}

// sizeTerm returns the capacity-dependent energy component. The
// DefaultSizeExp substitution below is the documented escape hatch for
// unvalidated literal models only; validated consumers never hit it.
func (m MemoryModel) sizeTerm(size uint32) PJ {
	exp := m.SizeExp
	if exp == 0 {
		exp = DefaultSizeExp
	}
	return m.KSize * PJ(math.Pow(float64(size), exp))
}

// ReadEnergy returns the energy of one read from an SRAM of size bytes.
func (m MemoryModel) ReadEnergy(size uint32) PJ {
	return m.ReadE0 + m.sizeTerm(size)
}

// WriteEnergy returns the energy of one write to an SRAM of size bytes.
func (m MemoryModel) WriteEnergy(size uint32) PJ {
	return m.WriteE0 + PJ(m.WritePenalty)*m.sizeTerm(size)
}

// Leakage returns static energy of size bytes over the given cycles.
func (m MemoryModel) Leakage(size uint32, cycles uint64) PJ {
	return m.LeakPerByteCycle * PJ(size) * PJ(cycles)
}

// SelectEnergy returns the per-access bank-selection overhead of a
// partitioned memory with nBanks banks. A monolithic memory has none.
func (m MemoryModel) SelectEnergy(nBanks int) PJ {
	if nBanks <= 1 {
		return 0
	}
	return m.DecoderE * PJ(bits.Len(uint(nBanks-1)))
}

// BusModel computes interconnect energy from transition counts.
type BusModel struct {
	// PerTransition is the energy of one line toggling once.
	PerTransition PJ
	// CouplingFactor scales the extra energy of adjacent lines switching
	// in opposite directions (Miller coupling); 0 disables coupling.
	CouplingFactor float64
}

// DefaultBusModel returns the bus model used by the experiments.
// Long off-chip or global lines dominate, so PerTransition is large
// relative to SRAM floors.
func DefaultBusModel() BusModel {
	return BusModel{PerTransition: 1.2, CouplingFactor: 0.6}
}

// TransitionEnergy returns the self-switching energy for n transitions.
func (b BusModel) TransitionEnergy(n uint64) PJ {
	return b.PerTransition * PJ(n)
}

// CacheModel gives per-component energies for a set-associative cache.
// A conventional N-way access reads all N tag and data ways in parallel;
// way-determination (DATE'03 10E.4) reduces that to one way.
type CacheModel struct {
	// TagE is the energy of probing one tag way.
	TagE PJ
	// DataE is the energy of reading one data way (one line segment).
	DataE PJ
	// WayTableE is the per-access energy of the way-determination table.
	WayTableE PJ
}

// DefaultCacheModel returns the cache model used by the experiments.
func DefaultCacheModel() CacheModel {
	return CacheModel{TagE: 0.4, DataE: 1.6, WayTableE: 0.25}
}

// ConventionalAccess returns the energy of a conventional access to an
// n-way cache (all ways probed in parallel).
func (c CacheModel) ConventionalAccess(ways int) PJ {
	return (c.TagE + c.DataE) * PJ(ways)
}

// DirectedAccess returns the energy of an access that probes exactly one
// way after consulting the way-determination table.
func (c CacheModel) DirectedAccess() PJ {
	return c.WayTableE + c.TagE + c.DataE
}
