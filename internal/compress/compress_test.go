package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"lpmem/internal/cache"
	"lpmem/internal/testutil"
	"lpmem/internal/workloads"
)

func TestRoundTripSimple(t *testing.T) {
	d := Differential{}
	lines := [][]byte{
		make([]byte, 32), // all zero: maximal compression
		{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0x80},
	}
	for i, line := range lines {
		enc := d.Compress(line)
		dec, err := d.Decompress(enc, len(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !bytes.Equal(dec, line) {
			t.Fatalf("line %d: round trip mismatch\n got %x\nwant %x", i, dec, line)
		}
	}
}

// TestRoundTripProperty: Compress then Decompress is the identity for any
// 32-byte line.
func TestRoundTripProperty(t *testing.T) {
	d := Differential{}
	f := func(line [32]byte) bool {
		enc := d.Compress(line[:])
		dec, err := d.Decompress(enc, 32)
		return err == nil && bytes.Equal(dec, line[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSizeMatchesCompress: the zero-alloc sizing pass must agree
// exactly with the real encoder on any line.
func TestSizeMatchesCompress(t *testing.T) {
	d := Differential{}
	f := func(line [32]byte) bool {
		return d.Size(line[:]) == len(d.Compress(line[:]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And on the non-32-byte lengths the quick.Check shape misses.
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{4, 8, 12, 64, 128} {
		line := make([]byte, n)
		for trial := 0; trial < 50; trial++ {
			r.Read(line)
			if got, want := d.Size(line), len(d.Compress(line)); got != want {
				t.Fatalf("len %d: Size %d != encoder %d", n, got, want)
			}
		}
	}
}

// TestSmoothDataCompressesWell: slowly varying words (DSP-like) should
// compress to well under half the original size.
func TestSmoothDataCompressesWell(t *testing.T) {
	d := Differential{}
	line := make([]byte, 32)
	v := int32(1000)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		v += int32(r.Intn(100) - 50)
		binary.LittleEndian.PutUint32(line[i*4:], uint32(v))
	}
	if got := float64(len(d.Compress(line))) / float64(len(line)); got > 0.5 {
		t.Errorf("smooth line ratio = %.2f, want <= 0.5", got)
	}
}

// TestRandomDataDoesNotExplode: incompressible data may exceed 1.0 only by
// the tag header.
func TestRandomDataDoesNotExplode(t *testing.T) {
	d := Differential{}
	r := rand.New(rand.NewSource(4))
	line := make([]byte, 32)
	r.Read(line)
	maxLen := 32 + (2*7+7)/8 // payload + tag bytes
	if got := len(d.Compress(line)); got > maxLen {
		t.Errorf("random line compressed to %d bytes, max %d", got, maxLen)
	}
}

func TestDecompressErrors(t *testing.T) {
	d := Differential{}
	if _, err := d.Decompress([]byte{1, 2}, 32); err == nil {
		t.Error("short encoding must error")
	}
	if _, err := d.Decompress(nil, 5); err == nil {
		t.Error("bad line size must error")
	}
	// Truncated payload: claim int16 deltas but supply none.
	enc := make([]byte, 2+4) // tags for 7 words + first word, no payload
	for i := 0; i < 7; i++ {
		setTag(enc[:2], i, tagInt16)
	}
	if _, err := d.Decompress(enc, 32); err == nil {
		t.Error("truncated payload must error")
	}
}

// TestMeasureTrafficOnKernels: every kernel's boundary traffic must
// compress at least a little, and the accounting must be self-consistent.
func TestMeasureTrafficOnKernels(t *testing.T) {
	cfg := cache.Config{Sets: 32, Ways: 2, LineSize: 32, WriteBack: true, WriteAllocate: true}
	for _, name := range []string{"fir", "adpcm", "matmul", "histogram"} {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := testutil.MustRun(k.Build(1))
		tr, stats, err := MeasureTraffic(res.Trace, cfg, Differential{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Lines == 0 {
			t.Fatalf("%s: no boundary traffic", name)
		}
		if tr.RawBytes != tr.Lines*uint64(cfg.LineSize) {
			t.Fatalf("%s: raw bytes %d inconsistent with %d lines", name, tr.RawBytes, tr.Lines)
		}
		if tr.Saving() <= 0 {
			t.Errorf("%s: no compression saving (%.3f)", name, tr.Saving())
		}
		if stats.Accesses == 0 {
			t.Fatalf("%s: no cache accesses", name)
		}
		t.Logf("%-10s lines=%6d raw=%8d comp=%8d saving=%5.1f%% hit=%.3f",
			name, tr.Lines, tr.RawBytes, tr.CompressedBytes, 100*tr.Saving(), stats.HitRate())
	}
}
