package buscode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/testutil"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// sequentialAddrs returns a mostly in-sequence address stream with the
// given fraction of jumps, like an instruction address bus.
func sequentialAddrs(seed int64, n int, jumpFrac float64) []uint32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	addr := uint32(0x1000)
	for i := range out {
		if r.Float64() < jumpFrac {
			addr = uint32(r.Intn(1 << 20))
		} else {
			addr += 4
		}
		out[i] = addr
	}
	return out
}

func TestGrayBeatsBinaryOnSequential(t *testing.T) {
	addrs := sequentialAddrs(1, 10000, 0.01)
	bin := Measure(&Binary{}, addrs)
	gray := Measure(&Gray{}, addrs)
	if gray.Transitions >= bin.Transitions {
		t.Errorf("gray %d >= binary %d on sequential stream", gray.Transitions, bin.Transitions)
	}
}

func TestT0NearZeroOnPureSequential(t *testing.T) {
	addrs := make([]uint32, 1000)
	for i := range addrs {
		addrs[i] = 0x400 + uint32(i)*4
	}
	t0 := &T0{Stride: 4}
	m := Measure(t0, addrs)
	// Only the INC line toggles: at most one transition per word after
	// the first two.
	if m.Transitions > uint64(len(addrs)) {
		t.Errorf("t0 transitions = %d on pure sequential stream", m.Transitions)
	}
	bin := Measure(&Binary{}, addrs)
	if m.Transitions*5 > bin.Transitions {
		t.Errorf("t0 should be dramatically below binary: %d vs %d", m.Transitions, bin.Transitions)
	}
}

func TestBusInvertNeverWorseThanBinaryPlusOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, 200)
		for i := range words {
			words[i] = r.Uint32()
		}
		bi := Measure(&BusInvert{}, words)
		bin := Measure(&Binary{}, words)
		// Bus-invert bounds per-cycle toggles to width/2 + invert line.
		return bi.Transitions <= bin.Transitions+uint64(len(words))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBusInvertCapsHalfWidth(t *testing.T) {
	// Alternating 0x00000000 / 0xFFFFFFFF is the worst case for binary
	// (32 toggles) and the best showcase for bus-invert (1 toggle).
	words := make([]uint32, 100)
	for i := range words {
		if i%2 == 1 {
			words[i] = 0xFFFFFFFF
		}
	}
	bi := Measure(&BusInvert{}, words)
	if bi.Transitions > uint64(len(words)) {
		t.Errorf("bus-invert transitions = %d, want <= %d", bi.Transitions, len(words))
	}
}

func TestShieldedZeroCoupling(t *testing.T) {
	// The shielding guarantee must hold for ANY stream.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, 300)
		addr := uint32(0)
		for i := range words {
			if r.Intn(10) == 0 {
				addr = r.Uint32()
			} else {
				addr += 4
			}
			words[i] = addr
		}
		m := Measure(&Shielded{Stride: 4}, words)
		return m.Couplings == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShieldedOverheadSmallOnSequential(t *testing.T) {
	addrs := sequentialAddrs(2, 20000, 0.004)
	m := Measure(&Shielded{Stride: 4}, addrs)
	if m.Lines != 33 {
		t.Fatalf("shielded lines = %d, want 33", m.Lines)
	}
	if ov := m.PerfOverhead(len(addrs)); ov > 0.01 {
		t.Errorf("shielded perf overhead = %.4f on 0.4%% jump stream, want < 1%%", ov)
	}
	bin := Measure(&Binary{}, addrs)
	if bin.Couplings == 0 {
		t.Fatal("binary baseline should suffer coupling events")
	}
}

func TestChromaticRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		c := &Chromatic{}
		var pats []uint64
		pats = c.EncodePixel(pats, RGB{r, g, b})
		got := DecodePixel(pats[0])
		return got == RGB{r, g, b}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestChromaticBeatsRawOnNaturalImages(t *testing.T) {
	pixels := SmoothRGB(7, 20000, 3.0, 2.0)
	raw := MeasurePixels(RawPixel{}, pixels)
	chr := MeasurePixels(&Chromatic{}, pixels)
	saving := 100 * float64(raw.Transitions-chr.Transitions) / float64(raw.Transitions)
	t.Logf("raw=%d chromatic=%d saving=%.1f%%", raw.Transitions, chr.Transitions, saving)
	// Moderately smooth content: savings grow toward the paper's 75%
	// envelope as content gets smoother (see TestChromaticSweep).
	if saving < 20 {
		t.Errorf("chromatic saving = %.1f%%, want >= 20%% on smooth correlated stream", saving)
	}
}

// TestEncodersOnRealFetchStream checks all address encoders against the
// instruction address stream of a real kernel.
func TestEncodersOnRealFetchStream(t *testing.T) {
	k, _ := workloads.ByName("fir")
	res := testutil.MustRun(k.Build(1))
	var addrs []uint32
	for _, a := range res.Trace.Accesses {
		if a.Kind == trace.Fetch {
			addrs = append(addrs, a.Addr)
		}
	}
	bin := Measure(&Binary{}, addrs)
	for _, enc := range []Encoder{&Gray{}, &T0{Stride: 4}, &BusInvert{}, &Shielded{Stride: 4}} {
		m := Measure(enc, addrs)
		t.Logf("%-10s lines=%d transitions=%d couplings=%d cycles=%d",
			enc.Name(), m.Lines, m.Transitions, m.Couplings, m.Cycles)
		if m.Transitions == 0 {
			t.Errorf("%s: zero transitions is implausible", enc.Name())
		}
	}
	if bin.Transitions == 0 {
		t.Fatal("binary baseline had no transitions")
	}
}

func TestWordTransitions(t *testing.T) {
	if got := Measure(&Binary{}, []uint32{0, 0xF}).Transitions; got != 4 {
		t.Fatalf("transitions = %d, want 4", got)
	}
	if got := Measure(&Binary{}, []uint32{0xFFFFFFFF, 0xFFFFFFFF}).Transitions; got != 0 {
		t.Fatalf("transitions = %d, want 0", got)
	}
}

// TestCouplingCountsOppositeTogglesOnly: coupling requires adjacent lines
// moving in opposite directions.
func TestCouplingCountsOppositeTogglesOnly(t *testing.T) {
	bus := &Binary{Width: 8}
	// Lines 0 rises, line 1 falls: one coupling event.
	if got := Measure(bus, []uint32{0b10, 0b01}).Couplings; got != 1 {
		t.Fatalf("opposite toggle coupling = %d, want 1", got)
	}
	// Both rise: no coupling.
	if got := Measure(bus, []uint32{0b00, 0b11}).Couplings; got != 0 {
		t.Fatalf("same-direction coupling = %d, want 0", got)
	}
	// Far-apart toggles: no coupling.
	if got := Measure(bus, []uint32{0b1, 0b10000000}).Couplings; got != 0 {
		t.Fatalf("distant toggle coupling = %d, want 0", got)
	}
}

// TestMeasureAdditive: on a stateless code, the activity of a
// concatenated sequence equals the sum over its windows (with shared
// boundary words).
func TestMeasureAdditive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint32, 20)
		for i := range words {
			words[i] = r.Uint32()
		}
		whole := Measure(&Binary{}, words)
		a, b := Measure(&Binary{}, words[:10]), Measure(&Binary{}, words[9:])
		return whole.Transitions == a.Transitions+b.Transitions && whole.Couplings == a.Couplings+b.Couplings
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureEmpty(t *testing.T) {
	if m := Measure(&Binary{}, nil); m.Transitions != 0 || m.Couplings != 0 {
		t.Fatal("empty sequence has no activity")
	}
	if m := Measure(&Binary{}, []uint32{5}); m.Transitions != 0 || m.Couplings != 0 {
		t.Fatal("single word has zero transitions")
	}
}
