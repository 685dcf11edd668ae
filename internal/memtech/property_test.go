package memtech_test

import (
	"math"
	"math/rand"
	"testing"

	"lpmem/internal/energy"
	"lpmem/internal/memtech"
	"lpmem/internal/testutil"
)

// randTechnology draws a node inside the modelled band.
func randTechnology(r *rand.Rand) float64 {
	return 0.022 + r.Float64()*(0.25-0.022)
}

// randBaseConfig draws a valid ungated configuration at a random node.
func randBaseConfig(r *rand.Rand, cell memtech.CellType) memtech.Config {
	return memtech.Config{
		Technology: randTechnology(r), DataCell: cell, PeripheralCell: cell,
		UCABankCount: 1 << r.Intn(4),
		PageSize:     1024 << r.Intn(4),
		BurstLength:  4 << r.Intn(3),
	}
}

// TestCellTypeOrderingProperty pins the physical invariants the cell
// library encodes, across random nodes and perturbed base models:
// static power lstp <= lop <= hp, access latency hp <= lop <= lstp.
// These orderings are what E21's inversion claim rests on.
func TestCellTypeOrderingProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		base := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		tech := randTechnology(r)
		size := uint32(1) << (8 + r.Intn(13)) // 256 B .. 1 MiB
		models := make(map[memtech.CellType]*memtech.Model, 3)
		for _, cell := range memtech.CellTypes() {
			cfg := memtech.Config{
				Technology: tech, DataCell: cell, PeripheralCell: cell,
				UCABankCount: 1, PageSize: 1024, BurstLength: 8,
			}
			m, err := memtech.New(base, cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			models[cell] = m
		}
		hp, lop, lstp := models[memtech.CellHP], models[memtech.CellLOP], models[memtech.CellLSTP]
		if !(lstp.StaticPower(size) <= lop.StaticPower(size) && lop.StaticPower(size) <= hp.StaticPower(size)) {
			t.Fatalf("trial %d: static power ordering violated at %d B / %.3f µm: lstp %v, lop %v, hp %v",
				trial, size, tech, lstp.StaticPower(size), lop.StaticPower(size), hp.StaticPower(size))
		}
		if !(hp.AccessCycles() <= lop.AccessCycles() && lop.AccessCycles() <= lstp.AccessCycles()) {
			t.Fatalf("trial %d: latency ordering violated: hp %v, lop %v, lstp %v",
				trial, hp.AccessCycles(), lop.AccessCycles(), lstp.AccessCycles())
		}
	}
}

// TestLeakageMonotoneProperty: under any cell/node/base combination, a
// bigger array never leaks less, longer runs never leak less, and all
// model outputs stay non-negative.
func TestLeakageMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	cells := memtech.CellTypes()
	for trial := 0; trial < 300; trial++ {
		base := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		cfg := randBaseConfig(r, cells[r.Intn(len(cells))])
		m, err := memtech.New(base, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e1 := r.Intn(20)
		e2 := e1 + r.Intn(24-e1)
		small, big := uint32(1)<<e1, uint32(1)<<e2
		cycles := uint64(r.Intn(1 << 20))
		if m.StaticPower(small) > m.StaticPower(big) {
			t.Fatalf("trial %d: static power not monotone in size (%+v)", trial, cfg)
		}
		if m.LeakageEnergy(big, cycles) > m.LeakageEnergy(big, cycles+1+uint64(r.Intn(1000))) {
			t.Fatalf("trial %d: leakage not monotone in cycles (%+v)", trial, cfg)
		}
		if m.ReadEnergy(small) > m.ReadEnergy(big) || m.WriteEnergy(small) > m.WriteEnergy(big) {
			t.Fatalf("trial %d: access energy not monotone in size (%+v)", trial, cfg)
		}
		for _, e := range []energy.PJ{
			m.ReadEnergy(small), m.WriteEnergy(small), m.StaticPower(small),
			m.TotalEnergy(big, uint64(r.Intn(1000)), uint64(r.Intn(1000)), cycles),
		} {
			if e < 0 || math.IsNaN(float64(e)) {
				t.Fatalf("trial %d: bad energy %v (%+v)", trial, e, cfg)
			}
		}
	}
}

// randIdle draws an idle-interval trace mixing short and long gaps so
// both sides of the break-even point are exercised.
func randIdle(r *rand.Rand) []uint64 {
	n := 1 + r.Intn(200)
	out := make([]uint64, n)
	for i := range out {
		if r.Intn(2) == 0 {
			out[i] = 1 + uint64(r.Intn(100))
		} else {
			out[i] = 1 + uint64(r.ExpFloat64()*1000)
		}
	}
	return out
}

// randGated draws a configuration with a random non-empty subset of the
// five gating switches enabled.
func randGated(r *rand.Rand, cells []memtech.CellType) memtech.Config {
	cfg := randBaseConfig(r, cells[r.Intn(len(cells))])
	for cfg.GatingEnabled() == false {
		cfg.ArrayPowerGating = r.Intn(2) == 0
		cfg.WLPowerGating = r.Intn(2) == 0
		cfg.CLPowerGating = r.Intn(2) == 0
		cfg.BitlineFloating = r.Intn(2) == 0
		cfg.InterconnectPowerGating = r.Intn(2) == 0
	}
	cfg.PowerGatingPerformanceLoss = 0.001 + 0.499*r.Float64()
	return cfg
}

// TestOracleGatingNeverLoses: with wake penalties fully accounted, the
// oracle policy's energy never exceeds the ungated baseline on any idle
// trace, any switch subset, any node, any perturbed base model — the
// soundness half of E22.
func TestOracleGatingNeverLoses(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	cells := memtech.CellTypes()
	for trial := 0; trial < 300; trial++ {
		base := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		cfg := randGated(r, cells)
		m, err := memtech.New(base, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := m.Gating(uint32(1) << (10 + r.Intn(10)))
		// The retention rail always keeps some leakage: even all five
		// switches stop short of 1 (0.95 up to float summation).
		if g.SavedFrac <= 0 || g.SavedFrac > 0.95+1e-9 {
			t.Fatalf("trial %d: SavedFrac %v outside (0, 0.95] (%+v)", trial, g.SavedFrac, cfg)
		}
		rep := g.OracleGated(randIdle(r))
		if rep.Gated > rep.Ungated {
			t.Fatalf("trial %d: oracle gating lost energy: gated %v > ungated %v (break-even %.0f, %+v)",
				trial, rep.Gated, rep.Ungated, g.BreakEven(), cfg)
		}
	}
}

// TestTimeoutGatingCounterexample pins the unsoundness half: the
// reactive timeout policy provably loses energy on an idle interval in
// (threshold, threshold+BreakEven) — the wake cost is paid but the gated
// stretch was too short to recoup it. E22's oracle/timeout gap is this
// band integrated over a distribution.
func TestTimeoutGatingCounterexample(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	cells := memtech.CellTypes()
	for trial := 0; trial < 100; trial++ {
		base := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		cfg := randGated(r, cells)
		m, err := memtech.New(base, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		g := m.Gating(16 << 10)
		be := g.BreakEven()
		if math.IsInf(be, 1) {
			t.Fatalf("trial %d: gated machine has infinite break-even (%+v)", trial, cfg)
		}
		threshold := uint64(1 + r.Intn(1000))
		// An interval strictly inside the losing band.
		inside := threshold + uint64(math.Max(1, be/2))
		if float64(inside-threshold) >= be {
			// Tiny break-even: the band holds no integer interval, so
			// there is no counterexample to pin at this machine.
			continue
		}
		rep := g.TimeoutGated([]uint64{inside}, threshold)
		if rep.Gated <= rep.Ungated {
			t.Fatalf("trial %d: timeout policy should lose on interval %d (threshold %d, break-even %.0f): gated %v vs ungated %v",
				trial, inside, threshold, be, rep.Gated, rep.Ungated)
		}
		// And past the band it must win again.
		outside := threshold + uint64(math.Ceil(be)) + uint64(r.Intn(10000))
		rep = g.TimeoutGated([]uint64{outside}, threshold)
		if rep.Gated > rep.Ungated {
			t.Fatalf("trial %d: timeout policy should win past the band (interval %d): gated %v vs ungated %v",
				trial, outside, rep.Gated, rep.Ungated)
		}
	}
}

// TestDRAMEnergyMonotoneInMisses: upgrading a row hit to a row miss adds
// an activation, a miss to a conflict adds a precharge — total energy is
// strictly monotone along the hit < miss < conflict axis for any model.
func TestDRAMEnergyMonotoneInMisses(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	cells := memtech.CellTypes()
	for trial := 0; trial < 300; trial++ {
		base := testutil.PerturbModel(energy.DefaultMemoryModel(), r)
		cfg := randBaseConfig(r, cells[r.Intn(len(cells))])
		m, err := memtech.New(base, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		d, err := memtech.NewDRAM(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st := memtech.DRAMStats{
			Reads:        uint64(r.Intn(10000)),
			Writes:       uint64(r.Intn(10000)),
			RowHits:      1 + uint64(r.Intn(10000)),
			RowMisses:    uint64(r.Intn(10000)),
			RowConflicts: uint64(r.Intn(10000)),
			Bursts:       uint64(r.Intn(40000)),
		}
		cycles := uint64(r.Intn(1 << 20))
		e0 := d.Energy(st, cycles)

		worse := st
		worse.RowHits--
		worse.RowMisses++
		if e1 := d.Energy(worse, cycles); e1 <= e0 {
			t.Fatalf("trial %d: hit→miss upgrade did not increase energy: %v <= %v", trial, e1, e0)
		}
		worse = st
		if worse.RowMisses > 0 {
			worse.RowMisses--
			worse.RowConflicts++
			if e1 := d.Energy(worse, cycles); e1 <= e0 {
				t.Fatalf("trial %d: miss→conflict upgrade did not increase energy: %v <= %v", trial, e1, e0)
			}
		}
		if lat := d.Latency(st); lat == 0 && st.Accesses() > 0 {
			t.Fatalf("trial %d: zero latency for %d accesses", trial, st.Accesses())
		}
	}
}
