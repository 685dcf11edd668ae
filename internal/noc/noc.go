// Package noc models a regular 2D-mesh network-on-chip and implements the
// energy- and performance-aware IP mapping of DATE'03 8B.2 (Hu &
// Marculescu: "Exploiting the Routing Flexibility for Energy/Performance
// Aware Mapping of Regular NoC Architectures").
//
// The communication energy of sending one bit over h hops is
//
//	e_bit(h) = (h+1)·E_Rbit + h·E_Lbit
//
// (one router per hop plus the source router, one link per hop), so total
// communication energy is Σ_flows volume · e_bit(dist(map(src), map(dst))).
// The mapper is a branch-and-bound over tile assignments, started from a
// local-search descent from the row-major mapping: IPs are placed in
// decreasing order of communication demand, partial costs are bounded
// from below, and a mapping is only accepted if the link bandwidth
// constraints can be satisfied by per-flow selection of XY or YX
// deterministic routing (the "routing flexibility" of the title — it both
// enlarges the feasible space and is deadlock-free for any mix, as XY and
// YX flows use disjoint turn sets per virtual channel).
//
//lint:hotpath
package noc

import (
	"fmt"
	"sort"

	"lpmem/internal/energy"
)

// Mesh is the target architecture.
type Mesh struct {
	// W and H are the mesh dimensions; W*H tiles.
	W, H int
	// LinkBW is the capacity of each directed link, in MB/s.
	LinkBW float64
	// ERbit and ELbit are per-bit router and link energies.
	ERbit, ELbit energy.PJ
}

// DefaultMesh returns the 4x4 mesh used by the E10 experiment.
func DefaultMesh() Mesh {
	return Mesh{W: 4, H: 4, LinkBW: 1000, ERbit: 0.284, ELbit: 0.449}
}

// Tiles returns the tile count.
func (m Mesh) Tiles() int { return m.W * m.H }

// coord returns the (x,y) of a tile index.
func (m Mesh) coord(t int) (int, int) { return t % m.W, t / m.W }

// dist is the Manhattan distance between two tiles.
func (m Mesh) dist(a, b int) int {
	ax, ay := m.coord(a)
	bx, by := m.coord(b)
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Dist is the Manhattan distance between two tiles. It is exported for
// the NUCA bank-distance latency model, which charges hops between a
// core's tile and the bank that holds its line.
func (m Mesh) Dist(a, b int) int { return m.dist(a, b) }

// BitEnergy returns e_bit for a path of h hops.
func (m Mesh) BitEnergy(h int) energy.PJ {
	return energy.PJ(h+1)*m.ERbit + energy.PJ(h)*m.ELbit
}

// Flow is one communication edge of the application core graph.
type Flow struct {
	// Src and Dst are IP indices.
	Src, Dst int
	// Volume is the total traffic in bits (drives energy).
	Volume float64
	// BW is the sustained bandwidth requirement in MB/s (drives link
	// capacity constraints).
	BW float64
}

// Graph is the application: N IP cores and their flows.
type Graph struct {
	N     int
	Flows []Flow
}

// Validate checks indices.
func (g *Graph) Validate() error {
	for _, f := range g.Flows {
		if f.Src < 0 || f.Src >= g.N || f.Dst < 0 || f.Dst >= g.N || f.Src == f.Dst {
			return fmt.Errorf("noc: bad flow %+v for %d cores", f, g.N)
		}
	}
	return nil
}

// CommEnergy returns the total communication energy of a mapping
// (mapping[ip] = tile).
func (m Mesh) CommEnergy(g *Graph, mapping []int) energy.PJ {
	var e energy.PJ
	for _, f := range g.Flows {
		h := m.dist(mapping[f.Src], mapping[f.Dst])
		e += energy.PJ(f.Volume) * m.BitEnergy(h)
	}
	return e
}

// RowMajor returns the ad-hoc baseline mapping: IP i on tile i.
func RowMajor(n int) []int {
	mapping := make([]int, n)
	for i := range mapping {
		mapping[i] = i
	}
	return mapping
}

// Routing is the per-flow choice of deterministic route.
type Routing int

// Route kinds.
const (
	XY Routing = iota
	YX
)

// bwChecker is the bandwidth feasibility test of one graph on one mesh,
// built once per mapper run so that each check is a walk over flat
// tables: the bandwidth-descending flow order does not depend on the
// mapping, and neither do the links of any (src, dst, XY|YX) route.
type bwChecker struct {
	m Mesh
	g *Graph
	// order lists flow indices by bandwidth descending, index ascending
	// on ties.
	order []int
	// load is the committed bandwidth per directed link, indexed
	// from*Tiles+to.
	load []float64
	// links holds every route's link indices back to back; route r of
	// tiles (src, dst) spans links[start[k]:start[k+1]] with
	// k = (src*Tiles+dst)*2+r.
	links []int
	start []int
	// routing is the per-flow routing chosen by the last successful check.
	routing []Routing
}

func newBWChecker(m Mesh, g *Graph) *bwChecker {
	c := &bwChecker{
		m:       m,
		g:       g,
		order:   make([]int, len(g.Flows)),
		load:    make([]float64, m.Tiles()*m.Tiles()),
		start:   make([]int, 2*m.Tiles()*m.Tiles()+1),
		routing: make([]Routing, len(g.Flows)),
	}
	for i := range c.order {
		c.order[i] = i
	}
	sort.Slice(c.order, func(a, b int) bool {
		fa, fb := g.Flows[c.order[a]], g.Flows[c.order[b]]
		//lint:allow floatcompare exact tie-break keeps the sort order deterministic
		if fa.BW != fb.BW {
			return fa.BW > fb.BW
		}
		return c.order[a] < c.order[b]
	})
	// Every route has exactly dist(src, dst) links.
	total := 0
	for src := 0; src < m.Tiles(); src++ {
		for dst := 0; dst < m.Tiles(); dst++ {
			total += 2 * m.dist(src, dst)
		}
	}
	c.links = make([]int, 0, total)
	k := 0
	for src := 0; src < m.Tiles(); src++ {
		for dst := 0; dst < m.Tiles(); dst++ {
			for r := XY; r <= YX; r++ {
				c.start[k] = len(c.links)
				c.links = m.appendRoute(c.links, src, dst, r)
				k++
			}
		}
	}
	c.start[k] = len(c.links)
	return c
}

// appendRoute appends the links of the deterministic route from src to
// dst: XY corrects x first, then y; YX the reverse.
func (m Mesh) appendRoute(links []int, src, dst int, r Routing) []int {
	x, y := m.coord(src)
	tx, ty := m.coord(dst)
	cur := src
	for leg := 0; leg < 2; leg++ {
		if (leg == 0) == (r == XY) {
			for ; x != tx; x += sign(tx - x) {
				next := y*m.W + x + sign(tx-x)
				links = append(links, cur*m.Tiles()+next)
				cur = next
			}
		} else {
			for ; y != ty; y += sign(ty - y) {
				next := (y+sign(ty-y))*m.W + x
				links = append(links, cur*m.Tiles()+next)
				cur = next
			}
		}
	}
	return links
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// route returns the link indices of one route.
func (c *bwChecker) route(src, dst int, r Routing) []int {
	k := (src*c.m.Tiles()+dst)*2 + int(r)
	return c.links[c.start[k]:c.start[k+1]]
}

// fits reports whether every link of the route has room for bw more.
func (c *bwChecker) fits(route []int, bw float64) bool {
	for _, l := range route {
		if c.load[l]+bw > c.m.LinkBW {
			return false
		}
	}
	return true
}

// check reports whether the flows can be routed within link capacities
// under the mapping, leaving the chosen routing in c.routing. The
// selection is greedy: flows in decreasing bandwidth order take XY if it
// fits, else YX, else the mapping is infeasible.
func (c *bwChecker) check(mapping []int) bool {
	clear(c.load)
	for _, i := range c.order {
		f := c.g.Flows[i]
		src, dst := mapping[f.Src], mapping[f.Dst]
		route := c.route(src, dst, XY)
		c.routing[i] = XY
		if !c.fits(route, f.BW) {
			route = c.route(src, dst, YX)
			c.routing[i] = YX
			if !c.fits(route, f.BW) {
				return false
			}
		}
		for _, l := range route {
			c.load[l] += f.BW
		}
	}
	return true
}

// MapResult is the outcome of the branch-and-bound mapper.
type MapResult struct {
	Mapping []int
	Routing []Routing
	// Energy is the CommEnergy of Mapping.
	Energy energy.PJ
	// Visited counts explored search nodes (for reporting).
	Visited uint64
	// Capped reports that the search stopped at its node cap: Mapping is
	// the best one found, not one proved minimal.
	Capped bool
}

// MapBnB finds a minimum-energy bandwidth-feasible mapping by
// branch-and-bound. The search starts from the incumbent that seed's
// descent finds, so it mostly has to prove a good mapping rather than
// find one. maxNodes caps the search (0 means 50M nodes); a search that
// hits the cap returns the best mapping found so far with Capped set, and
// one that completes has proved its mapping minimal within the model.
func MapBnB(m Mesh, g *Graph, maxNodes uint64) (*MapResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.N > m.Tiles() {
		return nil, fmt.Errorf("noc: %d cores exceed %d tiles", g.N, m.Tiles())
	}
	if maxNodes == 0 {
		maxNodes = 50_000_000
	}
	s := newBnBSearch(m, g, maxNodes)
	s.seed(g)
	s.dfs(0, 0)
	if !s.found {
		return nil, fmt.Errorf("noc: no bandwidth-feasible mapping found")
	}
	res := s.best
	// The descent and the search sum a mapping's flows in different
	// orders; pricing the result once more with CommEnergy gives the
	// same bits whichever of them found it.
	res.Energy = m.CommEnergy(g, res.Mapping)
	res.Visited = s.visited
	res.Capped = s.capped
	return &res, nil
}

// seed sets the search's first incumbent. When the row-major mapping is
// bandwidth-feasible, it descends from there by first-improvement moves:
// each scan tries, in a fixed order, swapping every pair of IPs and then,
// when the mesh has free tiles, moving every IP to every free tile. A
// move is kept when it strictly lowers CommEnergy and the moved mapping
// passes the bandwidth check, whose routing the incumbent takes; the
// scan goes on from the kept move. Scans repeat until one keeps nothing.
// When row-major is infeasible the search starts with no incumbent.
func (s *bnbSearch) seed(g *Graph) {
	cur := RowMajor(g.N)
	if !s.chk.check(cur) {
		return
	}
	e := s.m.CommEnergy(g, cur)
	s.accept(cur, e)
	used := make([]bool, s.tiles)
	for _, t := range cur {
		used[t] = true
	}
	// try keeps the move just made to cur if it is an improvement, and
	// reports whether it did; the caller undoes a move it does not keep.
	try := func() bool {
		moved := s.m.CommEnergy(g, cur)
		if moved >= e || !s.chk.check(cur) {
			return false
		}
		e = moved
		s.accept(cur, e)
		return true
	}
	for improved := true; improved; {
		improved = false
		for a := 0; a < g.N; a++ {
			for b := a + 1; b < g.N; b++ {
				cur[a], cur[b] = cur[b], cur[a]
				if try() {
					improved = true
				} else {
					cur[a], cur[b] = cur[b], cur[a]
				}
			}
		}
		for ip := 0; ip < g.N; ip++ {
			for t := 0; t < s.tiles; t++ {
				if used[t] {
					continue
				}
				from := cur[ip]
				cur[ip] = t
				if try() {
					used[from], used[t] = false, true
					improved = true
				} else {
					cur[ip] = from
				}
			}
		}
	}
}

// partner is a flow seen from one of its endpoints: the other endpoint
// and the flow's volume.
type partner struct {
	ip     int
	volume float64
}

// bnbSearch is the state of one MapBnB run. Which flows are fully or
// half placed at depth pos depends only on order[0..pos], so the search
// reads them from per-depth tables built once, and a search node
// allocates nothing.
type bnbSearch struct {
	m     Mesh
	tiles int
	// order places IPs by total communication volume, descending:
	// placing the talkative cores first makes bounds tight early.
	order []int
	// placed[pos] lists the flows of order[pos] whose other endpoint was
	// placed at a shallower depth, in adjacency order.
	placed [][]partner
	// open[pos] lists the volumes of the flows that stay unplaced or half
	// placed once order[pos] is placed, in the order the bound sums them.
	open [][]float64
	// dist[a*tiles+b] is the hop count between tiles a and b.
	dist     []int
	chk      *bwChecker
	mapping  []int
	usedTile []bool
	maxNodes uint64
	visited  uint64
	// capped is set when the search returns at maxNodes.
	capped bool
	// best is the incumbent; its slices are filled by copy.
	best  MapResult
	found bool
}

func newBnBSearch(m Mesh, g *Graph, maxNodes uint64) *bnbSearch {
	s := &bnbSearch{
		m:        m,
		tiles:    m.Tiles(),
		order:    make([]int, g.N),
		placed:   make([][]partner, g.N),
		open:     make([][]float64, g.N),
		dist:     make([]int, m.Tiles()*m.Tiles()),
		chk:      newBWChecker(m, g),
		mapping:  make([]int, g.N),
		usedTile: make([]bool, m.Tiles()),
		maxNodes: maxNodes,
		best: MapResult{
			Mapping: make([]int, g.N),
			Routing: make([]Routing, len(g.Flows)),
			Energy:  energy.PJ(1e30),
		},
	}
	vol := make([]float64, g.N)
	for _, f := range g.Flows {
		vol[f.Src] += f.Volume
		vol[f.Dst] += f.Volume
	}
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool {
		//lint:allow floatcompare exact tie-break keeps the sort order deterministic
		if vol[s.order[a]] != vol[s.order[b]] {
			return vol[s.order[a]] > vol[s.order[b]]
		}
		return s.order[a] < s.order[b]
	})

	// Per-IP flow adjacency, then the per-depth views of it.
	adj := make([][]partner, g.N)
	for _, f := range g.Flows {
		adj[f.Src] = append(adj[f.Src], partner{f.Dst, f.Volume})
		adj[f.Dst] = append(adj[f.Dst], partner{f.Src, f.Volume})
	}
	depth := make([]int, g.N)
	for pos, ip := range s.order {
		depth[ip] = pos
	}
	for pos, ip := range s.order {
		for _, p := range adj[ip] {
			if depth[p.ip] < pos {
				s.placed[pos] = append(s.placed[pos], p)
			}
		}
		// Count half-placed flows once (from their unplaced endpoint)
		// and unplaced-unplaced flows once (from the smaller-index
		// endpoint).
		for p2 := pos + 1; p2 < g.N; p2++ {
			u := s.order[p2]
			for _, p := range adj[u] {
				if depth[p.ip] <= pos || u < p.ip {
					s.open[pos] = append(s.open[pos], p.volume)
				}
			}
		}
	}
	for a := 0; a < s.tiles; a++ {
		for b := 0; b < s.tiles; b++ {
			s.dist[a*s.tiles+b] = m.dist(a, b)
		}
	}
	return s
}

// accept makes a bandwidth-feasible mapping, whose routing the checker
// just chose, the incumbent.
func (s *bnbSearch) accept(mapping []int, e energy.PJ) {
	copy(s.best.Mapping, mapping)
	copy(s.best.Routing, s.chk.routing)
	s.best.Energy = e
	s.found = true
}

func (s *bnbSearch) dfs(pos int, cost energy.PJ) {
	if s.visited >= s.maxNodes {
		s.capped = true
		return
	}
	s.visited++
	if cost >= s.best.Energy {
		return
	}
	if pos == len(s.order) {
		if s.chk.check(s.mapping) {
			s.accept(s.mapping, cost)
		}
		return
	}
	ip := s.order[pos]
	minBit := s.m.BitEnergy(1) // cheapest possible non-zero-hop cost
	for tile := 0; tile < s.tiles; tile++ {
		if s.usedTile[tile] {
			continue
		}
		// Symmetry breaking: the first IP only explores one
		// octant representative set of the mesh.
		if pos == 0 && !inOctant(s.m, tile) {
			continue
		}
		s.mapping[ip] = tile
		s.usedTile[tile] = true
		// Incremental exact cost of flows now fully placed, plus an
		// admissible 1-hop bound for the rest.
		inc := energy.PJ(0)
		for _, p := range s.placed[pos] {
			h := s.dist[tile*s.tiles+s.mapping[p.ip]]
			inc += energy.PJ(p.volume) * s.m.BitEnergy(h)
		}
		lb := cost + inc
		// Every flow not yet fully placed costs at least volume*e_bit(1):
		// 0 hops is impossible (distinct tiles), so 1 hop is admissible.
		for _, v := range s.open[pos] {
			lb += energy.PJ(v) * minBit
		}
		if lb < s.best.Energy {
			s.dfs(pos+1, cost+inc)
		}
		s.usedTile[tile] = false
	}
}

// inOctant restricts the first placed IP to a canonical region:
// one octant for square meshes (8 symmetries), one quadrant otherwise
// (4 symmetries).
func inOctant(m Mesh, tile int) bool {
	x, y := m.coord(tile)
	if x >= (m.W+1)/2 || y >= (m.H+1)/2 {
		return false
	}
	if m.W == m.H {
		return x <= y
	}
	return true
}
