package compress

import (
	"lpmem/internal/cache"
	"lpmem/internal/trace"
)

// Traffic summarises the cache/memory boundary traffic of a trace replay,
// with and without compression, in bytes. Main memory is assumed to store
// lines in compressed form, so both write-backs and refills move
// compressed bytes (decompression happens in the refill path, as in the
// paper's architecture).
type Traffic struct {
	// Lines is the number of lines that crossed the boundary.
	Lines uint64
	// RawBytes is the uncompressed boundary traffic.
	RawBytes uint64
	// CompressedBytes is the boundary traffic under the codec.
	CompressedBytes uint64
}

// Saving returns the fraction of boundary bytes removed by compression.
func (t Traffic) Saving() float64 {
	if t.RawBytes == 0 {
		return 0
	}
	return 1 - float64(t.CompressedBytes)/float64(t.RawBytes)
}

// MeasureTraffic replays the data accesses of tr through a write-back
// cache and measures boundary traffic under the codec. The cache is
// flushed at the end so all dirty lines are accounted.
func MeasureTraffic(tr *trace.Trace, cfg cache.Config, codec Codec) (Traffic, cache.Stats, error) {
	backing := cache.NewMapBacking()
	c, err := cache.New(cfg, backing)
	if err != nil {
		return Traffic{}, cache.Stats{}, err
	}
	var t Traffic
	count := func(_ uint32, data []byte) {
		t.Lines++
		t.RawBytes += uint64(len(data))
		t.CompressedBytes += uint64(len(codec.Compress(data)))
	}
	c.OnWriteBack = count
	c.OnRefill = count
	stats := c.Replay(tr)
	c.Flush()
	return t, stats, nil
}
