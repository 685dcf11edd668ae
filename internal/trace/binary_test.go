package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// mixedTrace builds a trace that exercises every column encoding path:
// tiny and huge address deltas in both directions, repeated and random
// values, all kinds and widths, and enough accesses to span several
// writer blocks.
func mixedTrace(n int) *Trace {
	t := New(n)
	tr := Synthesize(SynthConfig{
		Seed: 7,
		N:    n - 8,
		Regions: []Region{
			{Base: 0x1000, Size: 4096, Weight: 5, Stride: 4},
			{Base: 0x8000_0000, Size: 1 << 20, Weight: 1},
		},
		WriteFraction: 0.4,
	})
	t.Accesses = append(t.Accesses, tr.Accesses...)
	t.Append(Access{Addr: 0, Value: 0, Width: 1, Kind: Read})
	t.Append(Access{Addr: 0xffffffff, Value: 0xffffffff, Width: 4, Kind: Write})
	t.Append(Access{Addr: 0, Value: 0xdeadbeef, Width: 2, Kind: Fetch})
	t.Append(Access{Addr: 0xffffffff, Value: 0, Width: 1, Kind: Read})
	t.Append(Access{Addr: 1, Value: 1, Width: 1, Kind: Fetch})
	t.Append(Access{Addr: 1, Value: 1, Width: 1, Kind: Fetch})
	t.Append(Access{Addr: 0x7fffffff, Value: 42, Width: 4, Kind: Write})
	t.Append(Access{Addr: 0x80000000, Value: 42, Width: 4, Kind: Read})
	return t
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{8, 9, blockAccesses, blockAccesses + 1, 3*blockAccesses + 17} {
		tr := mixedTrace(n)
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("n=%d: WriteBinary: %v", n, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: ReadBinary: %v", n, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("n=%d: round-trip length %d -> %d", n, tr.Len(), got.Len())
		}
		for i := range tr.Accesses {
			if tr.Accesses[i] != got.Accesses[i] {
				t.Fatalf("n=%d: access %d changed: %+v -> %+v", n, i, tr.Accesses[i], got.Accesses[i])
			}
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := New(0).WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary(empty): %v", err)
	}
	if buf.Len() != headerLen {
		t.Fatalf("empty trace encodes to %d bytes, want bare %d-byte header", buf.Len(), headerLen)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary(empty): %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round-trip yielded %d accesses", got.Len())
	}
}

func TestBinaryMatchesTextSemantics(t *testing.T) {
	// The two formats must describe the same access sequence: text ->
	// parse -> binary -> parse must be identity.
	text := "R 10 4 ff\nW 20 2 1\nF 0 4 deadbeef\nR ffffffff 1 0\n"
	t1, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := t1.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	t2, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := t2.WriteText(&back); err != nil {
		t.Fatal(err)
	}
	if back.String() != text {
		t.Fatalf("text->binary->text changed the trace:\n in: %q\nout: %q", text, back.String())
	}
}

func TestBinaryStreamingReaderMatchesMaterialised(t *testing.T) {
	tr := mixedTrace(2*blockAccesses + 5)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for r.Next() {
		if *r.Access() != tr.Accesses[i] {
			t.Fatalf("access %d: stream %+v != source %+v", i, *r.Access(), tr.Accesses[i])
		}
		i++
	}
	if err := r.Err(); err != nil {
		t.Fatalf("stream error after %d accesses: %v", i, err)
	}
	if i != tr.Len() {
		t.Fatalf("stream yielded %d accesses, want %d", i, tr.Len())
	}
	if r.Blocks() != 3 {
		t.Fatalf("stream decoded %d blocks, want 3", r.Blocks())
	}
	// Exhausted cursor stays exhausted.
	if r.Next() {
		t.Fatal("Next returned true after exhaustion")
	}
}

func TestBinaryWriterRejectsUnknownKind(t *testing.T) {
	bw := newBinaryWriter(io.Discard, false)
	if err := bw.Write(Access{Kind: Kind(7)}); err == nil {
		t.Fatal("Write accepted kind 7")
	}
	if err := bw.Flush(); err == nil {
		t.Fatal("error did not stick on the writer")
	}
}

// corrupt returns a valid encoding of a small trace with one mutation
// applied.
func corrupt(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	tr := mixedTrace(64)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return mutate(buf.Bytes())
}

func TestBinaryCorruptionDetected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", func(b []byte) []byte { b[4] = 99; return b }},
		{"reserved flags", func(b []byte) []byte { b[5] = 2; return b }},
		{"core flag without core column", func(b []byte) []byte { b[5] = FlagMultiCore; return b }},
		{"truncated header", func(b []byte) []byte { return b[:3] }},
		{"truncated mid-block", func(b []byte) []byte { return b[:len(b)-7] }},
		{"trailing garbage block", func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff) }},
		{"zero-length block", func(b []byte) []byte { return append(b, 0) }},
		{"oversized block length", func(b []byte) []byte {
			return append(b, binary.AppendUvarint(nil, maxBlockAccesses+1)...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := corrupt(t, tc.mutate)
			if _, err := ReadBinary(bytes.NewReader(enc)); err == nil {
				t.Fatalf("%s: corruption not detected", tc.name)
			}
		})
	}
}

func TestBinaryTextIsNotBinary(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("R 10 4 ff\n")); err == nil {
		t.Fatal("ReadBinary accepted a text trace")
	}
	if HasBinaryMagic([]byte("R 10 4 ff")) {
		t.Fatal("HasBinaryMagic matched text")
	}
	if !HasBinaryMagic([]byte(binaryMagic + "\x01\x00")) {
		t.Fatal("HasBinaryMagic rejected a real header")
	}
}

func TestBinaryCompression(t *testing.T) {
	// A strided walk with value locality must beat the text format by a
	// wide margin: that is the point of delta+varint columns.
	tr := New(1 << 14)
	for i := 0; i < 1<<14; i++ {
		tr.Append(Access{Addr: 0x2000 + uint32(i)*4, Value: uint32(1000 + i%3), Width: 4, Kind: Read})
	}
	var text, bin bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*3 > text.Len() {
		t.Fatalf("binary %d bytes not at least 3x smaller than text %d bytes", bin.Len(), text.Len())
	}
	perAccess := float64(bin.Len()) / float64(tr.Len())
	if perAccess > 4 {
		t.Fatalf("strided trace costs %.2f bytes/access, want <= 4", perAccess)
	}
}

func TestSliceCursor(t *testing.T) {
	tr := mixedTrace(10)
	c := tr.Cursor()
	i := 0
	for c.Next() {
		if *c.Access() != tr.Accesses[i] {
			t.Fatalf("access %d: cursor %+v != slice %+v", i, *c.Access(), tr.Accesses[i])
		}
		i++
	}
	if i != tr.Len() || c.Err() != nil {
		t.Fatalf("cursor yielded %d accesses (err %v), want %d", i, c.Err(), tr.Len())
	}
	if c.Next() {
		t.Fatal("Next returned true after exhaustion")
	}
	empty := New(0).Cursor()
	if empty.Next() {
		t.Fatal("empty cursor advanced")
	}
}

func TestReadTextLongLine(t *testing.T) {
	// A line over the old 64 KiB scanner default must now parse (the
	// explicit buffer) and a line over the new 1 MiB ceiling must fail
	// with a trace-prefixed, line-numbered error.
	long := "R 10 4 ff\n# " + strings.Repeat("x", 100_000) + "\nW 20 2 1\n"
	tr, err := ReadText(strings.NewReader(long))
	if err != nil {
		t.Fatalf("100KB comment line rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("parsed %d accesses, want 2", tr.Len())
	}
	huge := "R 10 4 ff\n# " + strings.Repeat("y", maxTextLine+1) + "\n"
	_, err = ReadText(strings.NewReader(huge))
	if err == nil {
		t.Fatal("line over maxTextLine accepted")
	}
	if !strings.Contains(err.Error(), "trace: line 2:") {
		t.Fatalf("oversized-line error lacks trace prefix/line number: %v", err)
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	tr := mixedTrace(1 << 16)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(tr.Len()))
}

func BenchmarkReadBinaryStream(b *testing.B) {
	tr := mixedTrace(1 << 16)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for r.Next() {
			n++
		}
		if r.Err() != nil || n != tr.Len() {
			b.Fatalf("stream yielded %d accesses, err %v", n, r.Err())
		}
	}
	b.SetBytes(int64(tr.Len()))
}
