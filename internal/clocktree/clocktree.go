// Package clocktree implements delay-uncertainty-driven clock tree
// topology generation, reproducing DATE'03 1F.4 (Velenis, Friedman,
// Papaefthymiou: "Reduced Delay Uncertainty in High Performance Clock
// Distribution Networks").
//
// Process and environmental variation accumulate along the buffered clock
// path from the root to each sink. For a *pair* of sequentially adjacent
// registers, the skew uncertainty is proportional to the NON-COMMON
// portion of their two clock paths: variation on the shared prefix cancels
// out. The paper's polynomial-time algorithm therefore builds the tree
// topology so that the sink pairs on the most critical data paths join as
// early (as deep) as possible, maximizing their shared path.
//
// The package provides a recursive matching-based topology generator in
// two flavours — geometric (classic balanced bipartition by position,
// uncertainty-blind) and criticality-driven (critical pairs are kept in
// the same subtree at every cut) — and the weighted skew-uncertainty
// metric used to compare them.
package clocktree

import (
	"fmt"
	"math"
	"sort"
)

// Sink is a clock endpoint (a register bank) at a die position.
type Sink struct {
	X, Y float64
}

// CritPair marks a data path between two sinks; Weight is its timing
// criticality (bigger = less slack).
type CritPair struct {
	A, B   int
	Weight float64
}

// Node is a clock tree node; leaves reference a sink.
type Node struct {
	// Sink is the sink index for leaves, -1 for internal nodes.
	Sink        int
	Left, Right *Node
	// X, Y is the node's embedding (merge point).
	X, Y float64
}

// Tree is a complete topology over a sink set.
type Tree struct {
	Root  *Node
	Sinks []Sink
}

// depths computes each sink's path: the list of internal nodes from root
// to leaf, used to find shared prefixes.
func (t *Tree) leafPaths() map[int][]*Node {
	paths := make(map[int][]*Node)
	var walk func(n *Node, prefix []*Node)
	walk = func(n *Node, prefix []*Node) {
		if n == nil {
			return
		}
		if n.Sink >= 0 {
			p := make([]*Node, len(prefix))
			copy(p, prefix)
			paths[n.Sink] = p
			return
		}
		next := append(prefix, n)
		walk(n.Left, next)
		walk(n.Right, next)
	}
	walk(t.Root, nil)
	return paths
}

// wireLen is the Manhattan length between two points.
func wireLen(x1, y1, x2, y2 float64) float64 {
	return math.Abs(x1-x2) + math.Abs(y1-y2)
}

// UncommonLength returns the total non-shared clock path length between
// two sinks: the sum of wire lengths from the divergence node down to each
// leaf. Variation on this portion does not cancel and becomes skew
// uncertainty.
func (t *Tree) UncommonLength(a, b int) (float64, error) {
	paths := t.leafPaths()
	pa, ok := paths[a]
	if !ok {
		return 0, fmt.Errorf("clocktree: sink %d not in tree", a)
	}
	pb, ok := paths[b]
	if !ok {
		return 0, fmt.Errorf("clocktree: sink %d not in tree", b)
	}
	// Find the divergence point.
	common := 0
	for common < len(pa) && common < len(pb) && pa[common] == pb[common] {
		common++
	}
	la := pathLen(pa[common-1:], t.Sinks[a])
	lb := pathLen(pb[common-1:], t.Sinks[b])
	return la + lb, nil
}

// pathLen sums segment lengths from the first node through the given
// nodes down to the sink.
func pathLen(nodes []*Node, sink Sink) float64 {
	if len(nodes) == 0 {
		return 0
	}
	total := 0.0
	for i := 0; i+1 < len(nodes); i++ {
		total += wireLen(nodes[i].X, nodes[i].Y, nodes[i+1].X, nodes[i+1].Y)
	}
	last := nodes[len(nodes)-1]
	total += wireLen(last.X, last.Y, sink.X, sink.Y)
	return total
}

// Uncertainty returns the criticality-weighted total skew uncertainty of
// the tree over the given pairs (proportional to non-common path length).
func (t *Tree) Uncertainty(pairs []CritPair) (float64, error) {
	total := 0.0
	for _, p := range pairs {
		u, err := t.UncommonLength(p.A, p.B)
		if err != nil {
			return 0, err
		}
		total += p.Weight * u
	}
	return total, nil
}

// BuildGeometric builds the classic uncertainty-blind topology: recursive
// balanced bipartition along the longer spatial dimension (the method of
// means and medians).
func BuildGeometric(sinks []Sink) (*Tree, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("clocktree: no sinks")
	}
	idx := make([]int, len(sinks))
	for i := range idx {
		idx[i] = i
	}
	root := buildGeo(sinks, idx)
	return &Tree{Root: root, Sinks: sinks}, nil
}

func buildGeo(sinks []Sink, idx []int) *Node {
	if len(idx) == 1 {
		s := sinks[idx[0]]
		return &Node{Sink: idx[0], X: s.X, Y: s.Y}
	}
	// Split along the larger extent.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		minX = math.Min(minX, sinks[i].X)
		maxX = math.Max(maxX, sinks[i].X)
		minY = math.Min(minY, sinks[i].Y)
		maxY = math.Max(maxY, sinks[i].Y)
	}
	byX := maxX-minX >= maxY-minY
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool {
		if byX {
			//lint:allow floatcompare exact tie-break keeps the sort order deterministic
			if sinks[sorted[a]].X != sinks[sorted[b]].X {
				return sinks[sorted[a]].X < sinks[sorted[b]].X
			}
			//lint:allow floatcompare exact tie-break keeps the sort order deterministic
		} else if sinks[sorted[a]].Y != sinks[sorted[b]].Y {
			return sinks[sorted[a]].Y < sinks[sorted[b]].Y
		}
		return sorted[a] < sorted[b]
	})
	mid := len(sorted) / 2
	left := buildGeo(sinks, sorted[:mid])
	right := buildGeo(sinks, sorted[mid:])
	return merge(left, right, sinks)
}

func merge(l, r *Node, sinks []Sink) *Node {
	lx, ly := nodePos(l, sinks)
	rx, ry := nodePos(r, sinks)
	return &Node{Sink: -1, Left: l, Right: r, X: (lx + rx) / 2, Y: (ly + ry) / 2}
}

func nodePos(n *Node, sinks []Sink) (float64, float64) {
	if n.Sink >= 0 {
		return sinks[n.Sink].X, sinks[n.Sink].Y
	}
	return n.X, n.Y
}

// BuildCritical builds the uncertainty-driven topology: a bottom-up
// greedy pairwise merge where the next merge is chosen to maximize
// criticality between the two clusters (so critical pairs share their
// path from the deepest possible node), with distance as tie-breaker.
func BuildCritical(sinks []Sink, pairs []CritPair) (*Tree, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("clocktree: no sinks")
	}
	for _, p := range pairs {
		if p.A < 0 || p.A >= len(sinks) || p.B < 0 || p.B >= len(sinks) {
			return nil, fmt.Errorf("clocktree: pair references unknown sink: %+v", p)
		}
	}
	type cluster struct {
		node    *Node
		members map[int]bool
	}
	clusters := make([]*cluster, len(sinks))
	for i, s := range sinks {
		clusters[i] = &cluster{
			node:    &Node{Sink: i, X: s.X, Y: s.Y},
			members: map[int]bool{i: true},
		}
	}
	// Criticality between two clusters: summed weight of pairs split
	// across them.
	crit := func(a, b *cluster) float64 {
		w := 0.0
		for _, p := range pairs {
			if (a.members[p.A] && b.members[p.B]) || (a.members[p.B] && b.members[p.A]) {
				w += p.Weight
			}
		}
		return w
	}
	for len(clusters) > 1 {
		bi, bj := 0, 1
		bestW, bestD := -1.0, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				w := crit(clusters[i], clusters[j])
				ix, iy := nodePos(clusters[i].node, sinks)
				jx, jy := nodePos(clusters[j].node, sinks)
				d := wireLen(ix, iy, jx, jy)
				//lint:allow floatcompare exact equality only breaks argmax ties; any ulp wobble still picks a maximal pair
				if w > bestW || (w == bestW && d < bestD) {
					bi, bj, bestW, bestD = i, j, w, d
				}
			}
		}
		a, b := clusters[bi], clusters[bj]
		m := &cluster{node: merge(a.node, b.node, sinks), members: a.members}
		for k := range b.members {
			m.members[k] = true
		}
		next := clusters[:0]
		for i, cl := range clusters {
			if i != bi && i != bj {
				next = append(next, cl)
			}
		}
		clusters = append(next, m)
	}
	return &Tree{Root: clusters[0].node, Sinks: sinks}, nil
}
