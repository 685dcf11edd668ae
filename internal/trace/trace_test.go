package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	t := New(4)
	t.Append(Access{Addr: 0x1000, Value: 0xAB, Width: 4, Kind: Read})
	t.Append(Access{Addr: 0x1004, Value: 0xCD, Width: 2, Kind: Write})
	t.Append(Access{Addr: 0x0000, Value: 0x11, Width: 4, Kind: Fetch})
	t.Append(Access{Addr: 0x2000, Value: 0x22, Width: 1, Kind: Read})
	return t
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Read: "R", Write: "W", Fetch: "F", Kind(9): "?"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", k, got, want)
		}
	}
	if _, err := ParseKind("Z"); err == nil {
		t.Error("ParseKind(Z) should fail")
	}
}

func TestFilterAndData(t *testing.T) {
	tr := sample()
	data := tr.Data()
	if data.Len() != 3 {
		t.Fatalf("Data() kept %d accesses, want 3", data.Len())
	}
	for _, a := range data.Accesses {
		if a.Kind == Fetch {
			t.Fatal("Data() must drop fetches")
		}
	}
	if tr.Len() != 4 {
		t.Fatal("Filter must not mutate the receiver")
	}
}

// TestTextRoundTrip: WriteText then ReadText is the identity.
func TestTextRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("lengths differ: %d vs %d", back.Len(), tr.Len())
	}
	for i := range tr.Accesses {
		if tr.Accesses[i] != back.Accesses[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, tr.Accesses[i], back.Accesses[i])
		}
	}
}

// TestTextRoundTripProperty extends the round-trip to arbitrary accesses.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		tr := New(len(addrs))
		for i, a := range addrs {
			k := Read
			if i < len(kinds) {
				k = Kind(kinds[i] % 3)
			}
			tr.Append(Access{Addr: a, Value: a ^ 0xFFFF, Width: 4, Kind: k})
		}
		var buf bytes.Buffer
		if err := tr.WriteText(&buf); err != nil {
			return false
		}
		back, err := ReadText(&buf)
		if err != nil || back.Len() != tr.Len() {
			return false
		}
		for i := range tr.Accesses {
			if tr.Accesses[i] != back.Accesses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"R 1000",      // too few fields
		"Z 1000 4 0",  // bad kind
		"R zz 4 0",    // bad addr
		"R 1000 x 0",  // bad width
		"R 1000 4 zz", // bad value
	}
	for _, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("line %q should fail to parse", c)
		}
	}
	// Comments and blanks are fine.
	tr, err := ReadText(strings.NewReader("# comment\n\nR 10 4 ff\n"))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("comment handling broken: %v len=%d", err, tr.Len())
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := SynthConfig{
		Seed: 5, N: 1000,
		Regions:       []Region{{Base: 0, Size: 4096, Weight: 1, Stride: 4}, {Base: 8192, Size: 4096, Weight: 2}},
		WriteFraction: 0.5,
	}
	a := Synthesize(cfg)
	b := Synthesize(cfg)
	if a.Len() != 1000 || b.Len() != 1000 {
		t.Fatal("wrong length")
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatal("Synthesize is not deterministic")
		}
	}
	var writes int
	for _, acc := range a.Accesses {
		if acc.Kind == Write {
			writes++
		}
	}
	if writes < 400 || writes > 600 {
		t.Errorf("write fraction off: %d/1000", writes)
	}
}

func TestSynthesizeRespectsRegions(t *testing.T) {
	cfg := SynthConfig{
		Seed:    9,
		N:       500,
		Regions: []Region{{Base: 0x1000, Size: 256, Weight: 1, Stride: 4}},
	}
	tr := Synthesize(cfg)
	for _, a := range tr.Accesses {
		if a.Addr < 0x1000 || a.Addr >= 0x1100 {
			t.Fatalf("access %#x outside region", a.Addr)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty regions must panic")
		}
	}()
	Synthesize(SynthConfig{N: 1})
}
