package testutil

import (
	"math/rand"

	"lpmem/internal/energy"
)

// PerturbModel returns a copy of m with every parameter scaled by an
// independent seeded factor in [0.5, 2). The result is still a valid,
// monotone energy model, which is exactly what the property sweep needs:
// the invariants under test must hold for the whole family, not just the
// default calibration.
func PerturbModel(m energy.MemoryModel, r *rand.Rand) energy.MemoryModel {
	scale := func() float64 { return 0.5 + 1.5*r.Float64() }
	m.ReadE0 *= energy.PJ(scale())
	m.WriteE0 *= energy.PJ(scale())
	m.KSize *= energy.PJ(scale())
	// Keep the exponent in a physically plausible monotone band.
	m.SizeExp = 0.4 + 0.5*r.Float64()
	m.WritePenalty = 1 + r.Float64()
	m.LeakPerByteCycle *= energy.PJ(scale())
	m.DecoderE *= energy.PJ(scale())
	return m
}
