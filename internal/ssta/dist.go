// Package ssta implements statistical static timing analysis with
// linear-time bounds, reproducing DATE'03 1F.3 (Agarwal, Blaauw, Zolotov,
// Vrudhula: "Statistical Timing Analysis Using Bounds").
//
// With within-die process variation, gate delays are random variables and
// the circuit delay is the maximum over all paths — a quantity whose exact
// distribution is exponential to compute because reconvergent paths share
// gates and are therefore correlated. The paper's contribution is a pair
// of *provable bounds* computed in a single linear topological pass over
// discretized arrival-time distributions:
//
//   - upper bound: at every merge, treat the arriving distributions as
//     independent, so P(max ≤ t) := Π P(aᵢ ≤ t). For positively
//     correlated arrivals (the only correlation reconvergent fanout can
//     produce) the true P(max ≤ t) is ≥ the product, so the resulting
//     variable stochastically dominates the true delay: an upper bound.
//
//   - lower bound: at every merge use P(max ≤ t) := min P(aᵢ ≤ t), the
//     Fréchet upper CDF bound, which the true max CDF can never exceed;
//     the resulting variable is stochastically dominated by the true
//     delay: a lower bound.
//
// The exact distribution is estimated by Monte Carlo for validation; the
// paper's result — the bounds bracket the true delay with small error on
// benchmark circuits — is reproduced by the E14 experiment.
package ssta

import (
	"fmt"
	"math"
)

// Dist is a probability distribution represented by its CDF sampled on a
// uniform time grid: CDF[i] = P(X <= T0 + i*Step).
type Dist struct {
	T0   float64
	Step float64
	CDF  []float64
}

// NewGrid allocates a zeroed CDF grid.
func NewGrid(t0, step float64, n int) *Dist {
	return &Dist{T0: t0, Step: step, CDF: make([]float64, n)}
}

// Point returns a degenerate distribution at value v on the given grid.
func Point(t0, step float64, n int, v float64) *Dist {
	d := NewGrid(t0, step, n)
	for i := range d.CDF {
		if t0+float64(i)*step >= v {
			d.CDF[i] = 1
		}
	}
	return d
}

// clone copies the distribution.
func (d *Dist) clone() *Dist {
	out := &Dist{T0: d.T0, Step: d.Step, CDF: make([]float64, len(d.CDF))}
	copy(out.CDF, d.CDF)
	return out
}

// MaxIndep returns the distribution of max(a, b) under the independence
// assumption: CDF = CDFa * CDFb (the paper's upper-bound merge).
func MaxIndep(a, b *Dist) (*Dist, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	out := a.clone()
	for i := range out.CDF {
		out.CDF[i] *= b.CDF[i]
	}
	return out, nil
}

// MaxFrechet returns the Fréchet bound merge: CDF = min(CDFa, CDFb) (the
// paper's lower-bound merge).
func MaxFrechet(a, b *Dist) (*Dist, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	out := a.clone()
	for i := range out.CDF {
		if b.CDF[i] < out.CDF[i] {
			out.CDF[i] = b.CDF[i]
		}
	}
	return out, nil
}

// AddPDF returns the distribution of X + D where D has the given discrete
// PDF on the same step grid (pdf[k] = P(D == k*Step + dT0)).
func (d *Dist) AddPDF(dT0 float64, pdf []float64) *Dist {
	n := len(d.CDF)
	out := &Dist{T0: d.T0 + dT0, Step: d.Step, CDF: make([]float64, n)}
	// CDF_out(t) = sum_k pdf[k] * CDF_in(t - k*step); grid-aligned.
	for i := 0; i < n; i++ {
		acc := 0.0
		for k, p := range pdf {
			if p == 0 {
				continue
			}
			j := i - k
			if j >= 0 {
				acc += p * d.CDF[j]
			}
		}
		out.CDF[i] = acc
	}
	return out
}

// Quantile returns the smallest grid time with CDF >= q.
func (d *Dist) Quantile(q float64) float64 {
	for i, c := range d.CDF {
		if c >= q {
			return d.T0 + float64(i)*d.Step
		}
	}
	return d.T0 + float64(len(d.CDF))*d.Step
}

func compatible(a, b *Dist) error {
	//lint:allow floatcompare grid-identity check; compatible grids share literal construction so equality is exact
	if a.T0 != b.T0 || a.Step != b.Step || len(a.CDF) != len(b.CDF) {
		return fmt.Errorf("ssta: incompatible grids (%g/%g/%d vs %g/%g/%d)",
			a.T0, a.Step, len(a.CDF), b.T0, b.Step, len(b.CDF))
	}
	return nil
}

// GaussPDF discretizes a normal(mu, sigma) onto k steps of the given
// width, returning the offset t0 and the pdf weights (normalized).
func GaussPDF(step, mu, sigma float64, k int) (t0 float64, pdf []float64) {
	t0 = mu - 3*sigma
	pdf = make([]float64, k)
	total := 0.0
	for i := range pdf {
		t := t0 + float64(i)*step
		var p float64
		if sigma <= 0 {
			if math.Abs(t-mu) < step/2 {
				p = 1
			}
		} else {
			p = math.Exp(-(t - mu) * (t - mu) / (2 * sigma * sigma))
		}
		pdf[i] = p
		total += p
	}
	if total == 0 {
		pdf[0] = 1
		total = 1
	}
	for i := range pdf {
		pdf[i] /= total
	}
	return t0, pdf
}
