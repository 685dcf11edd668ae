package lpmem

import (
	"fmt"
	"math/rand"

	"lpmem/internal/buscode"
	"lpmem/internal/cache"
	"lpmem/internal/imem"
	"lpmem/internal/stats"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// runE3 regenerates the instruction-memory transformation table (1B.3):
// per benchmark, fetch-path bus transitions before and after the trained
// field re-encoding.
func runE3() (*Result, error) {
	apps, err := workloads.Traces(1)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable("kernel", "base transitions", "transformed", "saving %")
	var savings []float64
	for _, app := range apps {
		var stream []uint32
		for _, a := range app.Trace.Accesses {
			if a.Kind == trace.Fetch {
				stream = append(stream, a.Value)
			}
		}
		base, xf, err := imem.Evaluate(stream, stream, imem.MuRISCFields())
		if err != nil {
			return nil, err
		}
		s := stats.PercentSaving(float64(base), float64(xf))
		savings = append(savings, s)
		table.AddRow(app.Name, base, xf, s)
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("transition saving: avg %.1f%%, max %.1f%% (paper: up to ~50%%)",
			stats.Mean(savings), stats.Max(savings)),
	}, nil
}

// fetchAddrs extracts the instruction-address stream of an app.
func fetchAddrs(t *trace.Trace) []uint32 {
	var out []uint32
	for _, a := range t.Accesses {
		if a.Kind == trace.Fetch {
			out = append(out, a.Addr)
		}
	}
	return out
}

// runE5 regenerates the address-bus encoding comparison (6F.3) on the
// *memory-side* instruction address bus: the CPU-side fetch stream is
// filtered through a small I-cache, and the encoders drive the resulting
// line-refill address stream. That is where the paper's scheme lives —
// refill traffic is overwhelmingly sequential (code is laid out and first
// touched in address order), which is why its cycle overhead is tiny.
func runE5() (*Result, error) {
	apps, err := workloads.Traces(1)
	if err != nil {
		return nil, err
	}
	const lineSize = 32
	var refills []uint32
	for _, app := range apps {
		ic, err := cache.New(cache.Config{Sets: 32, Ways: 2, LineSize: lineSize, WriteBack: false, WriteAllocate: true})
		if err != nil {
			return nil, err
		}
		for _, fa := range fetchAddrs(app.Trace) {
			if !ic.Access(fa, false).Hit {
				refills = append(refills, fa&^uint32(lineSize-1))
			}
		}
	}
	// Steady-state external traffic (refill bursts, DMA, frame scans):
	// long sequential runs with occasional jumps.
	burst := func(seed int64, n int, jumpFrac float64) []uint32 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]uint32, n)
		addr := uint32(0x8000)
		for i := range out {
			if rng.Float64() < jumpFrac {
				addr = uint32(rng.Intn(1<<24)) &^ (lineSize - 1)
			} else {
				addr += lineSize
			}
			out[i] = addr
		}
		return out
	}
	streams := []struct {
		name  string
		addrs []uint32
	}{
		{"kernel-refills", refills},
		{"extbus-j0.2%", burst(5, 50_000, 0.002)},
		{"extbus-j2%", burst(6, 50_000, 0.02)},
	}
	encoders := func() []buscode.Encoder {
		return []buscode.Encoder{
			&buscode.Binary{},
			&buscode.Gray{},
			&buscode.T0{Stride: lineSize},
			&buscode.BusInvert{},
			&buscode.Shielded{Stride: lineSize},
		}
	}
	table := stats.NewTable("stream", "scheme", "lines", "transitions", "couplings", "perf overhead %")
	var headline buscode.Measurement
	var headlineN int
	for _, st := range streams {
		for _, enc := range encoders() {
			m := buscode.Measure(enc, st.addrs)
			if enc.Name() == "shielded" && st.name == "extbus-j0.2%" {
				headline = m
				headlineN = len(st.addrs)
			}
			table.AddRow(st.name, enc.Name(), m.Lines, m.Transitions, m.Couplings, 100*m.PerfOverhead(len(st.addrs)))
		}
	}
	return &Result{
		Table: table,
		Summary: fmt.Sprintf("shielded on steady-state external bus: %d couplings (guaranteed 0), 1 extra line, %.2f%% cycle overhead (paper: 1 line, ~0.36%% perf)",
			headline.Couplings, 100*headline.PerfOverhead(headlineN)),
	}, nil
}

// runE6 regenerates the chromatic-encoding table (8B.3) over image types
// of increasing tonal locality.
func runE6() (*Result, error) {
	type img struct {
		name   string
		pixels []buscode.RGB
	}
	images := []img{
		{"texture(s=8)", buscode.SmoothRGB(7, 20000, 8, 6)},
		{"natural(s=3)", buscode.SmoothRGB(7, 20000, 3, 2)},
		{"smooth(s=1.5)", buscode.SmoothRGB(7, 20000, 1.5, 0.8)},
		{"gradient(s=0.8)", buscode.SmoothRGB(7, 20000, 0.8, 0.4)},
		{"midtone-128", buscode.MidtoneRGB(7, 20000, 128, 0.8, 0.3)},
		{"midtone-64", buscode.MidtoneRGB(7, 20000, 64, 0.8, 0.3)},
	}
	table := stats.NewTable("image", "raw transitions", "chromatic", "saving %")
	var maxSaving float64
	for _, im := range images {
		raw := buscode.MeasurePixels(buscode.RawPixel{}, im.pixels)
		chr := buscode.MeasurePixels(&buscode.Chromatic{}, im.pixels)
		s := stats.PercentSaving(float64(raw.Transitions), float64(chr.Transitions))
		if s > maxSaving {
			maxSaving = s
		}
		table.AddRow(im.name, raw.Transitions, chr.Transitions, s)
	}
	return &Result{
		Table:   table,
		Summary: fmt.Sprintf("max transition saving %.1f%% with 3 redundant bits/pixel (paper: up to 75%%)", maxSaving),
	}, nil
}
