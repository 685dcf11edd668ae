package trace

import (
	"bytes"
	"strings"
	"testing"
)

// multiCoreTrace builds one interleaved trace per sharing pattern for
// the serialisation tests.
func multiCoreTrace(t *testing.T, pattern SharingPattern, cores, perCore int) *Trace {
	t.Helper()
	tr, err := SynthesizeMultiCore(MultiCoreConfig{
		Seed:            42,
		Cores:           cores,
		AccessesPerCore: perCore,
		Pattern:         pattern,
	})
	if err != nil {
		t.Fatalf("SynthesizeMultiCore(%s): %v", pattern, err)
	}
	return tr
}

func TestSynthesizeMultiCoreDeterministic(t *testing.T) {
	for _, pattern := range SharingPatterns() {
		a := multiCoreTrace(t, pattern, 4, 500)
		b := multiCoreTrace(t, pattern, 4, 500)
		if a.Len() != 4*500 {
			t.Fatalf("%s: want %d accesses, got %d", pattern, 4*500, a.Len())
		}
		if !a.MultiCore {
			t.Fatalf("%s: synthesised trace not marked MultiCore", pattern)
		}
		for i := range a.Accesses {
			if a.Accesses[i] != b.Accesses[i] {
				t.Fatalf("%s: access %d differs across identical seeds: %+v vs %+v",
					pattern, i, a.Accesses[i], b.Accesses[i])
			}
		}
	}
}

func TestSynthesizeMultiCorePerCoreCounts(t *testing.T) {
	const cores, perCore = 6, 333
	for _, pattern := range SharingPatterns() {
		tr := multiCoreTrace(t, pattern, cores, perCore)
		counts := make([]int, cores)
		for _, a := range tr.Accesses {
			if int(a.Core) >= cores {
				t.Fatalf("%s: core ID %d out of range", pattern, a.Core)
			}
			counts[a.Core]++
		}
		for c, n := range counts {
			if n != perCore {
				t.Fatalf("%s: core %d issued %d accesses, want %d", pattern, c, n, perCore)
			}
		}
	}
}

func TestSynthesizeMultiCoreSharingShapes(t *testing.T) {
	// Private pattern: per-core address ranges must be disjoint.
	priv := multiCoreTrace(t, SharingPrivate, 4, 2000)
	const footprint = 64 << 10 // default PrivateBytes
	for _, a := range priv.Accesses {
		region := a.Addr / footprint
		if region != uint32(a.Core) {
			t.Fatalf("private pattern: core %d touched address %#x in core %d's region",
				a.Core, a.Addr, region)
		}
	}

	// Shared pattern: at least two cores must touch a common address.
	shared := multiCoreTrace(t, SharingShared, 4, 2000)
	byAddr := make(map[uint32]uint8)
	overlap := false
	for _, a := range shared.Accesses {
		if prev, ok := byAddr[a.Addr]; ok && prev != a.Core {
			overlap = true
			break
		}
		byAddr[a.Addr] = a.Core
	}
	if !overlap {
		t.Fatal("shared pattern: no address was touched by two cores")
	}

	// Producer-consumer: some address must be written by one core and
	// read by its successor.
	pc := multiCoreTrace(t, SharingProducerConsumer, 4, 2000)
	writers := make(map[uint32]uint8)
	for _, a := range pc.Accesses {
		if a.Kind == Write {
			writers[a.Addr] = a.Core
		}
	}
	crossRead := false
	for _, a := range pc.Accesses {
		if a.Kind == Read {
			if w, ok := writers[a.Addr]; ok && w != a.Core {
				crossRead = true
				break
			}
		}
	}
	if !crossRead {
		t.Fatal("producer-consumer pattern: no cross-core read of a written address")
	}
}

func TestSynthesizeMultiCoreValidation(t *testing.T) {
	cases := []MultiCoreConfig{
		{Cores: 0, AccessesPerCore: 10, Pattern: SharingPrivate},
		{Cores: 257, AccessesPerCore: 10, Pattern: SharingPrivate},
		{Cores: 2, AccessesPerCore: -1, Pattern: SharingPrivate},
		{Cores: 2, AccessesPerCore: 10, Pattern: "exotic"},
	}
	for i, cfg := range cases {
		if _, err := SynthesizeMultiCore(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

// TestMultiCoreTextRoundTrip checks the five-field text shape survives
// text → trace → text byte-identically, with MultiCore intact.
func TestMultiCoreTextRoundTrip(t *testing.T) {
	tr := multiCoreTrace(t, SharingProducerConsumer, 3, 400)
	var first bytes.Buffer
	if err := tr.WriteText(&first); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !got.MultiCore {
		t.Fatal("five-field text read back without MultiCore set")
	}
	var second bytes.Buffer
	if err := got.WriteText(&second); err != nil {
		t.Fatalf("re-WriteText: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("multi-core text round-trip not byte-identical")
	}
}

// TestMultiCoreBinaryRoundTrip checks text → binary → text: the LPMT
// core column must preserve every CoreID so the regenerated text is
// byte-identical to the original.
func TestMultiCoreBinaryRoundTrip(t *testing.T) {
	for _, pattern := range SharingPatterns() {
		tr := multiCoreTrace(t, pattern, 5, 3000)
		var text1 bytes.Buffer
		if err := tr.WriteText(&text1); err != nil {
			t.Fatalf("%s: WriteText: %v", pattern, err)
		}
		parsed, err := ReadText(bytes.NewReader(text1.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadText: %v", pattern, err)
		}
		var bin bytes.Buffer
		if err := parsed.WriteBinary(&bin); err != nil {
			t.Fatalf("%s: WriteBinary: %v", pattern, err)
		}
		decoded, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadBinary: %v", pattern, err)
		}
		if !decoded.MultiCore {
			t.Fatalf("%s: binary decode dropped MultiCore", pattern)
		}
		var text2 bytes.Buffer
		if err := decoded.WriteText(&text2); err != nil {
			t.Fatalf("%s: re-WriteText: %v", pattern, err)
		}
		if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
			t.Fatalf("%s: text→binary→text not byte-identical", pattern)
		}
	}
}

// TestMultiCoreStreamingMatchesMaterialised replays an interleaved
// binary stream through the streaming Reader and compares every access
// — including Core — against the materialised decode.
func TestMultiCoreStreamingMatchesMaterialised(t *testing.T) {
	tr := multiCoreTrace(t, SharingShared, 8, 2500)
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	raw := bin.Bytes()

	mat, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	sr, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !sr.MultiCore() {
		t.Fatal("streaming Reader did not report MultiCore")
	}
	i := 0
	for sr.Next() {
		if i >= mat.Len() {
			t.Fatalf("stream produced more than %d accesses", mat.Len())
		}
		if *sr.Access() != mat.Accesses[i] {
			t.Fatalf("access %d: stream %+v, materialised %+v", i, *sr.Access(), mat.Accesses[i])
		}
		i++
	}
	if err := sr.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if i != mat.Len() {
		t.Fatalf("stream produced %d accesses, materialised %d", i, mat.Len())
	}
}

func TestReadTextRejectsMixedCoreShape(t *testing.T) {
	const mixed = "R 10 4 ff 0\nW 20 4 1\n"
	if _, err := ReadText(strings.NewReader(mixed)); err == nil {
		t.Fatal("mixed 4- and 5-field input accepted")
	} else if !strings.Contains(err.Error(), "mixed") {
		t.Fatalf("unexpected error for mixed input: %v", err)
	}
	// And the opposite order.
	const mixed2 = "W 20 4 1\nR 10 4 ff 0\n"
	if _, err := ReadText(strings.NewReader(mixed2)); err == nil {
		t.Fatal("mixed 5- after 4-field input accepted")
	}
}

func TestReadTextRejectsBadCore(t *testing.T) {
	for _, bad := range []string{"R 10 4 ff 256\n", "R 10 4 ff -1\n", "R 10 4 ff x\n"} {
		if _, err := ReadText(strings.NewReader(bad)); err == nil {
			t.Fatalf("bad core field accepted: %q", bad)
		}
	}
}

// TestSingleCoreWriterRejectsCoreID pins the guard that keeps core IDs
// from being silently dropped by the four-column encoding.
func TestSingleCoreWriterRejectsCoreID(t *testing.T) {
	var buf bytes.Buffer
	bw := newBinaryWriter(&buf, false)
	if err := bw.Write(Access{Kind: Read, Addr: 4, Width: 4, Core: 3}); err == nil {
		t.Fatal("single-core writer accepted an access with a core ID")
	}
}

// TestMultiCoreFlagWithoutCores pins the other direction: a MultiCore
// trace whose accesses all come from core 0 must still round-trip with
// the flag (and the core column) intact.
func TestMultiCoreFlagWithoutCores(t *testing.T) {
	tr := New(2)
	tr.MultiCore = true
	tr.Append(Access{Kind: Read, Addr: 0x10, Width: 4, Value: 1})
	tr.Append(Access{Kind: Write, Addr: 0x14, Width: 4, Value: 2})
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&bin)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !got.MultiCore {
		t.Fatal("all-core-0 multi-core trace lost its flag")
	}
}
