package lpmem

import (
	"fmt"

	"lpmem/internal/ctg"
	"lpmem/internal/noc"
	"lpmem/internal/stats"
)

// E10's link capacities and the node cap of each search.
var e10LinkBWs = []float64{1500, 1000, 700}

const e10MaxNodes = 2_000_000

// runE10 regenerates the NoC mapping table (8B.2): communication energy of
// the ad-hoc mapping vs the branch-and-bound mapper on the multimedia
// core graph, across link-bandwidth regimes (tight bandwidth is where
// routing flexibility earns its keep).
func runE10() (*Result, error) {
	g := noc.MMSGraph()
	table := stats.NewTable("link BW", "adhoc E", "bnb E", "saving %", "visited")
	var headline float64
	// Index 1 (1000 units/cycle) is the paper's headline regime; selecting
	// by index avoids comparing the float loop variable for equality.
	const headlineBW = 1
	for bwIdx, bw := range e10LinkBWs {
		m := noc.DefaultMesh()
		m.LinkBW = bw
		adhoc := m.CommEnergy(g, noc.RowMajor(g.N))
		res, err := noc.MapBnB(m, g, e10MaxNodes)
		if err != nil {
			// Under very tight bandwidth even the search may fail; record it.
			table.AddRow(bw, float64(adhoc), "infeasible", 0.0, 0)
			continue
		}
		// A capped search's mapping is only the best one found; the table
		// prints proved minima.
		if res.Capped {
			return nil, fmt.Errorf("E10: the search at link BW %.0f stopped at its %d-node cap", bw, e10MaxNodes)
		}
		s := stats.PercentSaving(float64(adhoc), float64(res.Energy))
		if bwIdx == headlineBW {
			headline = s
		}
		table.AddRow(bw, float64(adhoc), float64(res.Energy), s, res.Visited)
	}
	return &Result{
		Table:   table,
		Summary: fmt.Sprintf("BnB mapping saves %.1f%% communication energy on the MMS graph (paper: 51.7%%)", headline),
	}, nil
}

// runE11 regenerates the CTG DVS table (2B.2): energy savings of DVS alone
// and of GA mapping + DVS, across deadline tightness.
func runE11() (*Result, error) {
	const procs = 2
	table := stats.NewTable("deadline slack", "nominal E", "DVS E", "DVS %", "GA+DVS E", "GA+DVS %")
	var dvsTight, gaTight float64
	// Index 1 (1.1x slack) is the paper's quoted operating point.
	const headlineSlack = 1
	for slackIdx, slack := range []float64{1.05, 1.1, 1.25, 1.5} {
		g := ctg.CruiseController()
		// Scale the deadline to slack x the nominal worst-case makespan
		// of the round-robin mapping.
		rr := ctg.RoundRobin(len(g.Tasks), procs)
		worst := 0.0
		for _, sc := range g.Scenarios() {
			if ms := g.Makespan(rr, procs, nil, sc); ms > worst {
				worst = ms
			}
		}
		g.Deadline = worst * slack
		nominal := g.Energy(nil)
		stretch, err := g.DVS(rr, procs)
		if err != nil {
			return nil, err
		}
		dvsE := g.Energy(stretch)
		res, err := ctg.MapGA(g, procs, ctg.DefaultGAConfig())
		if err != nil {
			return nil, err
		}
		dvsS := stats.PercentSaving(nominal, dvsE)
		gaS := stats.PercentSaving(nominal, res.Energy)
		if slackIdx == headlineSlack {
			dvsTight, gaTight = dvsS, gaS
		}
		table.AddRow(slack, nominal, dvsE, dvsS, res.Energy, gaS)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("at 1.1x deadline: DVS %.1f%%, GA mapping + DVS %.1f%% (paper: 24%% and up to 51%%)",
			dvsTight, gaTight),
	}, nil
}
