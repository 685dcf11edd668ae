package bdd

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// subfunction, keyOf and dependsOn are the cofactor kernels the scratch
// path replaced: each extraction builds its cofactor one bit at a time,
// with an inner loop over the free variables, and returns it as a fresh
// key string; dependence on v takes two more extractions.
func (t *TruthTable) subfunction(fixedMask, fixedVal int) string {
	freeVars := make([]int, 0, t.N)
	for v := 0; v < t.N; v++ {
		if fixedMask>>uint(v)&1 == 0 {
			freeVars = append(freeVars, v)
		}
	}
	n := len(freeVars)
	words := (1<<uint(n) + 63) / 64
	out := make([]uint64, words)
	for m := 0; m < 1<<uint(n); m++ {
		full := fixedVal
		for i, v := range freeVars {
			if m>>uint(i)&1 == 1 {
				full |= 1 << uint(v)
			}
		}
		if t.Get(full) {
			out[m/64] |= 1 << (uint(m) % 64)
		}
	}
	return keyOf(out, n)
}

func keyOf(words []uint64, n int) string {
	b := make([]byte, 0, len(words)*8+1)
	b = append(b, byte(n))
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>uint(s)))
		}
	}
	return string(b)
}

func (t *TruthTable) dependsOn(fixedMask, fixedVal, v int) bool {
	k0 := t.subfunction(fixedMask|1<<uint(v), fixedVal)
	k1 := t.subfunction(fixedMask|1<<uint(v), fixedVal|1<<uint(v))
	return k0 != k1
}

// assignments lists the values of the variables in set, in ascending
// order of their packed index.
func assignments(t *TruthTable, set int) []int {
	vars := make([]int, 0, t.N)
	for i := 0; i < t.N; i++ {
		if set>>uint(i)&1 == 1 {
			vars = append(vars, i)
		}
	}
	out := make([]int, 0, 1<<uint(len(vars)))
	for a := 0; a < 1<<uint(len(vars)); a++ {
		val := 0
		for i, vv := range vars {
			if a>>uint(i)&1 == 1 {
				val |= 1 << uint(vv)
			}
		}
		out = append(out, val)
	}
	return out
}

func refLevelNodes(t *TruthTable, above, v int) int {
	seen := make(map[string]bool)
	count := 0
	for _, val := range assignments(t, above) {
		k := t.subfunction(above, val)
		if seen[k] {
			continue
		}
		seen[k] = true
		if t.dependsOn(above, val, v) {
			count++
		}
	}
	return count
}

func refEssentialVars(t *TruthTable) int {
	mask := 0
	for v := 0; v < t.N; v++ {
		if t.dependsOn(0, 0, v) {
			mask |= 1 << uint(v)
		}
	}
	return mask
}

func refClassesAfter(t *TruthTable, s int) int {
	seen := make(map[string]bool)
	for _, val := range assignments(t, s) {
		seen[t.subfunction(s, val)] = true
	}
	return len(seen)
}

func refSizeForOrder(t *TruthTable, order []int) int {
	seen, total := 0, 0
	for _, v := range order {
		total += refLevelNodes(t, seen, v)
		seen |= 1 << uint(v)
	}
	return total
}

func refLowerBound(t *TruthTable, s int, bounds BoundSet, essential int) int {
	remaining := essential &^ s
	if remaining == 0 {
		return 0
	}
	lb := 0
	if bounds.Remaining {
		lb = popcount16(remaining)
	}
	if bounds.MaxLevel {
		min := 1 << 30
		for v := 0; v < t.N; v++ {
			if remaining>>uint(v)&1 == 0 {
				continue
			}
			if n := refLevelNodes(t, s, v); n < min {
				min = n
			}
		}
		if b := min + popcount16(remaining) - 1; b > lb {
			lb = b
		}
	}
	if bounds.Monotone {
		if b := refClassesAfter(t, s) - 2; b > lb {
			lb = b
		}
	}
	return lb
}

// refMinimize is Minimize over the reference kernels; its search
// bookkeeping is a copy of Minimize's.
func refMinimize(t *TruthTable, bounds BoundSet) *MinimizeResult {
	essential := refEssentialVars(t)
	best := refSizeForOrder(t, IdentityOrder(t.N))
	bestOrder := IdentityOrder(t.N)
	g := map[int]int{0: 0}
	lastVar := map[int]int{}
	var expanded uint64
	frontier := []int{0}
	full := 1<<uint(t.N) - 1
	for size := 0; size < t.N; size++ {
		sort.Slice(frontier, func(i, j int) bool {
			if g[frontier[i]] != g[frontier[j]] {
				return g[frontier[i]] < g[frontier[j]]
			}
			return frontier[i] < frontier[j]
		})
		next := map[int]bool{}
		for _, s := range frontier {
			if g[s]+refLowerBound(t, s, bounds, essential) >= best {
				continue
			}
			expanded++
			for v := 0; v < t.N; v++ {
				if s>>uint(v)&1 == 1 {
					continue
				}
				ns := s | 1<<uint(v)
				cost := g[s] + refLevelNodes(t, s, v)
				if old, ok := g[ns]; !ok || cost < old {
					g[ns] = cost
					lastVar[ns] = v
				}
				next[ns] = true
			}
		}
		frontier = frontier[:0]
		for s := range next {
			frontier = append(frontier, s)
		}
		if c, ok := g[full]; ok && c < best {
			best = c
			bestOrder = reconstruct(lastVar, full, t.N)
		}
	}
	if c, ok := g[full]; ok && c < best {
		best = c
		bestOrder = reconstruct(lastVar, full, t.N)
	}
	return &MinimizeResult{Order: bestOrder, Size: best, Expanded: expanded}
}

// referenceFunctions returns E16's four functions and seeded random
// truth tables of 1 to 10 variables. Each random table depends only on a
// random subset of its variables, at an on-set density of 1/2 or 1/16,
// so the set holds both essential and inessential variables; N >= 7
// gives multi-word cofactors.
func referenceFunctions(t *testing.T) map[string]*TruthTable {
	t.Helper()
	funcs := map[string]*TruthTable{}
	for name, build := range map[string]func() (*TruthTable, error){
		"mux2":    func() (*TruthTable, error) { return Multiplexer(2) },
		"add4":    func() (*TruthTable, error) { return AdderCarry(4) },
		"hwb8":    func() (*TruthTable, error) { return HiddenWeightedBit(8) },
		"parity8": func() (*TruthTable, error) { return Parity(8) },
	} {
		tt, err := build()
		if err != nil {
			t.Fatal(err)
		}
		funcs[name] = tt
	}
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 3; trial++ {
			relevant := r.Intn(1 << uint(n))
			if trial == 0 {
				relevant = 1<<uint(n) - 1
			}
			density := 2
			if trial == 2 {
				density = 16
			}
			onset := map[int]bool{}
			tt, err := FromFunc(n, func(m int) bool {
				m &= relevant
				if _, ok := onset[m]; !ok {
					onset[m] = r.Intn(density) == 0
				}
				return onset[m]
			})
			if err != nil {
				t.Fatal(err)
			}
			funcs[fmt.Sprintf("rand%d.%d", n, trial)] = tt
		}
	}
	return funcs
}

// TestCofactorKernelsMatchReference compares levelNodes for every set
// and variable outside it, the class count for every set, and
// essentialVars, with the bit-at-a-time kernels. Each function's
// scratch serves all its sets, so its buffers are reused across
// cofactor widths.
func TestCofactorKernelsMatchReference(t *testing.T) {
	for name, tt := range referenceFunctions(t) {
		sc := newScratch(tt)
		if got, want := tt.essentialVars(), refEssentialVars(tt); got != want {
			t.Fatalf("%s: essentialVars = %b, reference %b", name, got, want)
		}
		for s := 0; s < 1<<uint(tt.N); s++ {
			if got, want := sc.classes(tt, s, -1), refClassesAfter(tt, s); got != want {
				t.Fatalf("%s: classes(%b) = %d, reference classesAfter %d", name, s, got, want)
			}
			for v := 0; v < tt.N; v++ {
				if s>>uint(v)&1 == 1 {
					continue
				}
				if got, want := sc.levelNodes(tt, s, v), refLevelNodes(tt, s, v); got != want {
					t.Fatalf("%s: levelNodes(%b, %d) = %d, reference %d", name, s, v, got, want)
				}
			}
		}
	}
}

// TestMinimizeMatchesReference: the optimum, its order and the expanded
// count agree with the reference kernels under both bound sets.
func TestMinimizeMatchesReference(t *testing.T) {
	for name, tt := range referenceFunctions(t) {
		if tt.N > 8 {
			continue
		}
		for _, bounds := range []BoundSet{OneBound(), AllBounds()} {
			got, err := Minimize(tt, bounds)
			if err != nil {
				t.Fatal(err)
			}
			want := refMinimize(tt, bounds)
			if got.Size != want.Size || got.Expanded != want.Expanded || fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
				t.Fatalf("%s %+v: Minimize = %+v, reference %+v", name, bounds, got, want)
			}
		}
	}
}
