package cache

import (
	"bytes"
	"sync"
	"testing"

	"lpmem/internal/trace"
)

// benchTraceLen is the replay length of the streaming benchmarks: a
// full million-access trace, the scale the binary format exists for.
const benchTraceLen = 1 << 20

var benchCacheCfg = Config{Sets: 256, Ways: 4, LineSize: 32, WriteBack: true, WriteAllocate: true}

// benchTraceEncoded memoises a 2^20-access synthetic trace in both
// formats so every benchmark replays identical accesses.
var benchTraceEncoded = sync.OnceValue(func() (enc struct{ bin, text []byte }) {
	tr := trace.Synthesize(trace.SynthConfig{
		Seed: 42,
		N:    benchTraceLen,
		Regions: []trace.Region{
			{Base: 0x1000, Size: 64 << 10, Weight: 8, Stride: 4},
			{Base: 0x100000, Size: 1 << 20, Weight: 2},
			{Base: 0x8000000, Size: 8 << 20, Weight: 1},
		},
		WriteFraction: 0.3,
	})
	var bin, text bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		panic(err)
	}
	if err := tr.WriteText(&text); err != nil {
		panic(err)
	}
	enc.bin = bin.Bytes()
	enc.text = text.Bytes()
	return enc
})

// BenchmarkReplayBinaryCursor is the zero-allocation fast path: stream
// a binary trace through the cache without materialising a []Access.
// One op = one full million-access replay, so per-op allocations are
// the *per-replay* constant (cache image, reader buffers) and the
// per-access allocation count must be exactly zero — asserted by
// TestBinaryReplayZeroAllocPerAccess.
func BenchmarkReplayBinaryCursor(b *testing.B) {
	enc := benchTraceEncoded().bin
	b.ReportAllocs()
	b.SetBytes(benchTraceLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mustNew(b, benchCacheCfg)
		r, err := trace.NewReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.ReplayCursor(r)
		if err != nil {
			b.Fatal(err)
		}
		if st.Accesses != benchTraceLen {
			b.Fatalf("replayed %d accesses, want %d", st.Accesses, benchTraceLen)
		}
	}
}

// BenchmarkReplayTextMaterialised is the old slow path for comparison:
// parse the text format into a []Access, then replay it.
func BenchmarkReplayTextMaterialised(b *testing.B) {
	enc := benchTraceEncoded().text
	b.ReportAllocs()
	b.SetBytes(benchTraceLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.ReadText(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		c := mustNew(b, benchCacheCfg)
		st := c.Replay(tr)
		if st.Accesses != benchTraceLen {
			b.Fatalf("replayed %d accesses, want %d", st.Accesses, benchTraceLen)
		}
	}
}

// TestBinaryReplayZeroAllocPerAccess is the acceptance gate for the
// streaming replay path: replaying a million-access binary trace must
// allocate 0 bytes and 0 objects per access. The per-op totals of the
// benchmark are the per-replay constants (cache image, bufio reader,
// column buffers); tight absolute caps keep "0 per access" from hiding
// a creeping constant, and the per-access division is the headline
// number recorded in BENCH_PR8.json.
func TestBinaryReplayZeroAllocPerAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrated benchmark run; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkReplayBinaryCursor)
	allocsPerAccess := res.AllocsPerOp() / benchTraceLen
	bytesPerAccess := res.AllocedBytesPerOp() / benchTraceLen
	if allocsPerAccess != 0 || bytesPerAccess != 0 {
		t.Fatalf("binary cursor replay allocates %d allocs / %d bytes per access, want 0/0 (per replay: %d allocs, %d bytes)",
			allocsPerAccess, bytesPerAccess, res.AllocsPerOp(), res.AllocedBytesPerOp())
	}
	// Per-replay constants: a handful of fixed structures, nothing that
	// scales with trace length.
	if res.AllocsPerOp() > 256 {
		t.Fatalf("binary cursor replay performs %d allocations per million-access replay; setup is no longer O(1)",
			res.AllocsPerOp())
	}
	if res.AllocedBytesPerOp() > 1<<20 {
		t.Fatalf("binary cursor replay allocates %d bytes per million-access replay; setup is no longer O(block)",
			res.AllocedBytesPerOp())
	}
}
