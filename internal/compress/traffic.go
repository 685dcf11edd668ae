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

// MeasureTraffic replays the data accesses of tr (fetches are skipped)
// through a cache of geometry cfg and measures boundary traffic under the
// codec, which sizes each line without encoding it. The cache tracks
// tags only; the bytes live in a memory image that each store updates
// after the cache has seen it, so a refill the store causes reads the
// line as it was before the store. Every refilled and written-back line
// is read from the image, which, with the trace as the one writer, holds
// exactly what the line does. The statistics are
// taken before the cache is flushed at the end, so the flush's dirty
// lines count in the traffic but not in the statistics.
func MeasureTraffic(tr *trace.Trace, cfg cache.Config, codec Codec) (Traffic, cache.Stats, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return Traffic{}, cache.Stats{}, err
	}
	var mem trace.Memory
	var t Traffic
	line := make([]byte, cfg.LineSize)
	count := func(addr uint32) {
		mem.ReadLine(addr, line)
		t.Lines++
		t.RawBytes += uint64(len(line))
		t.CompressedBytes += uint64(codec.Size(line))
	}
	c.OnWriteBack = count
	c.OnRefill = count
	for _, a := range tr.Accesses {
		if a.Kind == trace.Fetch {
			continue
		}
		isWrite := a.Kind == trace.Write
		c.Access(a.Addr, isWrite)
		if isWrite {
			mem.Store(a.Addr, a.Width, a.Value)
		}
	}
	stats := c.Stats()
	c.Flush()
	return t, stats, nil
}
