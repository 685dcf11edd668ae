package ssta

import (
	"math"
	"testing"
)

// mean is the grid approximation of E[X]: T0 + Step * sum_i (1 - CDF[i]).
func mean(d *Dist) float64 {
	sum := 0.0
	for _, c := range d.CDF {
		sum += 1 - c
	}
	return d.T0 + d.Step*sum
}

// dominates reports whether a >= b in the usual stochastic order (the
// CDF of a is pointwise <= the CDF of b), up to tol, on a shared grid.
func dominates(a, b *Dist, tol float64) bool {
	if compatible(a, b) != nil {
		return false
	}
	for i := range a.CDF {
		if a.CDF[i] > b.CDF[i]+tol {
			return false
		}
	}
	return true
}

// TestGaussianCDFShape: a point at 0 plus a GaussPDF delay is the
// normal(mu, sigma) CDF the bound propagation works with.
func TestGaussianCDFShape(t *testing.T) {
	d := Point(0, 0.1, 200, 0).AddPDF(GaussPDF(0.1, 10, 1, 61))
	if got := d.Quantile(0.5); math.Abs(got-10) > 0.2 {
		t.Fatalf("median = %f, want ~10", got)
	}
	if got := mean(d); math.Abs(got-10) > 0.2 {
		t.Fatalf("mean = %f, want ~10", got)
	}
	// CDF must be nondecreasing.
	for i := 1; i < len(d.CDF); i++ {
		if d.CDF[i] < d.CDF[i-1]-1e-12 {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestPointDist(t *testing.T) {
	d := Point(0, 0.5, 20, 3.2)
	if got := d.Quantile(0.99); math.Abs(got-3.5) > 0.51 {
		t.Fatalf("point quantile = %f", got)
	}
}

func TestMaxMergesOrdering(t *testing.T) {
	t0, pdf := GaussPDF(0.05, 5, 0.5, 61)
	a := Point(0, 0.05, 400, 0).AddPDF(t0, pdf)   // normal(5, 0.5)
	b := Point(0, 0.05, 400, 0.5).AddPDF(t0, pdf) // normal(5.5, 0.5)
	indep, err := MaxIndep(a, b)
	if err != nil {
		t.Fatal(err)
	}
	frechet, err := MaxFrechet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Independence merge dominates the Fréchet merge.
	if !dominates(indep, frechet, 1e-12) {
		t.Fatal("independent max must dominate Fréchet max")
	}
	// Both dominate each input.
	if !dominates(frechet, b, 1e-12) {
		t.Fatal("any max bound must dominate its inputs")
	}
}

func TestMergeGridMismatch(t *testing.T) {
	a := NewGrid(0, 0.05, 100)
	b := NewGrid(0, 0.1, 100)
	if _, err := MaxIndep(a, b); err == nil {
		t.Fatal("grid mismatch must error")
	}
}

func TestAddPDFShiftsMean(t *testing.T) {
	d := Point(0, 0.1, 400, 2)
	t0, pdf := GaussPDF(0.1, 3, 0.2, 20)
	sum := d.AddPDF(t0, pdf)
	if got := mean(sum); math.Abs(got-5) > 0.3 {
		t.Fatalf("mean after add = %f, want ~5", got)
	}
}

func TestValidateCatchesBadCircuits(t *testing.T) {
	bad := &Circuit{Gates: []Gate{{Mu: 1, Fanin: []int{0}}}, Outputs: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("self-fanin must be rejected")
	}
	noOut := &Circuit{Gates: []Gate{{Mu: 1}}}
	if err := noOut.Validate(); err == nil {
		t.Fatal("no outputs must be rejected")
	}
}

// TestBoundsBracketMonteCarlo is the paper's core claim: the linear-time
// bounds bracket the exact (Monte Carlo) delay distribution, and the
// bracket is tight.
func TestBoundsBracketMonteCarlo(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := RandomCircuit(seed, 8, 6)
		grid := DefaultGridFor(c)
		lo, hi, err := Bounds(c, grid)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MonteCarlo(c, 4000, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := SampleQuantile(mc, q)
			l := lo.Quantile(q)
			h := hi.Quantile(q)
			if l > exact+2*grid.Step {
				t.Errorf("seed %d q%.2f: lower bound %f above exact %f", seed, q, l, exact)
			}
			if h < exact-2*grid.Step {
				t.Errorf("seed %d q%.2f: upper bound %f below exact %f", seed, q, h, exact)
			}
			if spread := (h - l) / exact; spread > 0.25 {
				t.Errorf("seed %d q%.2f: bounds too loose (%.1f%%)", seed, q, 100*spread)
			}
		}
	}
}

// TestBoundsExactOnChain: a pure chain has no reconvergence, so both
// bounds collapse to the same distribution.
func TestBoundsExactOnChain(t *testing.T) {
	c := &Circuit{Outputs: []int{4}}
	for i := 0; i < 5; i++ {
		g := Gate{Mu: 2, Sigma: 0.1}
		if i > 0 {
			g.Fanin = []int{i - 1}
		}
		c.Gates = append(c.Gates, g)
	}
	grid := DefaultGridFor(c)
	lo, hi, err := Bounds(c, grid)
	if err != nil {
		t.Fatal(err)
	}
	// Direction-aware rounding deliberately opens up to one grid step of
	// gap per gate, so the bounds coincide only up to that budget.
	budget := 2 * float64(len(c.Gates)) * grid.Step
	for _, q := range []float64{0.5, 0.95} {
		if d := math.Abs(lo.Quantile(q) - hi.Quantile(q)); d > budget {
			t.Errorf("chain bounds differ at q%.2f by %f (budget %f)", q, d, budget)
		}
	}
	// And both match the analytic sum: N(10, sqrt(5)*0.1).
	want := 10.0
	if got := hi.Quantile(0.5); math.Abs(got-want) > 0.15 {
		t.Errorf("chain median = %f, want ~%f", got, want)
	}
}

// TestMonteCarloDeterministic for fixed seeds.
func TestMonteCarloDeterministic(t *testing.T) {
	c := RandomCircuit(2, 4, 4)
	a, _ := MonteCarlo(c, 500, 7)
	b, _ := MonteCarlo(c, 500, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Monte Carlo not deterministic")
		}
	}
}
