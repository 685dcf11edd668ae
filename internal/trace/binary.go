package trace

// Binary columnar trace format.
//
// The text format (WriteText/ReadText) is the hand-craftable, diffable
// representation; this file is the fast path. A binary trace is a fixed
// header followed by a sequence of self-contained blocks. Each block
// holds up to blockAccesses accesses split into four per-column byte
// runs, so the same field of consecutive accesses is stored adjacently
// (columnar layout) and each column can use the encoding its
// distribution wants:
//
//	header:  "LPMT" magic | version byte (1) | flags byte
//	block:   uvarint n (accesses in block, n >= 1)
//	         column kind:  uvarint len | ceil(2n/8) bytes, 2-bit codes
//	         column addr:  uvarint len | n x varint zigzag(addr delta)
//	         column width: uvarint len | n x uvarint width
//	         column value: uvarint len | n x uvarint (value XOR prev)
//	         column core:  uvarint len | n raw bytes   (flag bit 0 only)
//	eof:     clean end of input at a block boundary
//
// The flags byte carries format extensions within version 1: bit 0
// (FlagMultiCore) marks a multi-core trace and adds the per-access core
// column to every block. All other bits are reserved and rejected.
//
// Addresses are delta-encoded against the previous access in the block
// (starting from zero), which turns strided walks and hot loops into
// streams of tiny zigzag varints. Values are XOR-chained, so repeated
// and slowly-varying data shrinks while random data costs at most five
// bytes. Kinds pack four accesses per byte. Deltas and XOR chains reset
// at every block boundary, so a corrupt block cannot poison decoding
// past its own extent and future versions can seek block-at-a-time.
//
// Versioning/compat rules: the version byte is bumped on any
// incompatible layout change and readers reject versions they do not
// know; the flags byte must be zero in version 1 and gives version 1
// readers a defined failure mode for version 1.x extensions.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// binaryMagic starts every binary trace file.
	binaryMagic = "LPMT"
	// BinaryVersion is the format version this package writes.
	BinaryVersion = 1
	// blockAccesses is the writer's accesses-per-block target. Blocks
	// are decoded into reused buffers, so the block size bounds the
	// reader's working set, not the trace size.
	blockAccesses = 4096
	// maxBlockAccesses bounds the block size a reader accepts, so a
	// corrupt or hostile header cannot demand an unbounded allocation.
	maxBlockAccesses = 1 << 20
	// headerLen is magic + version + flags.
	headerLen = len(binaryMagic) + 2
	// FlagMultiCore marks a trace whose blocks carry the per-access
	// core-ID column (Trace.MultiCore round-trips through it).
	FlagMultiCore = 0x01
	// knownFlags is the mask of flag bits version 1 defines.
	knownFlags = FlagMultiCore
)

// HasBinaryMagic reports whether p starts with the binary trace magic.
// Four bytes of prefix are enough to sniff the format.
func HasBinaryMagic(p []byte) bool {
	return len(p) >= len(binaryMagic) && string(p[:len(binaryMagic)]) == binaryMagic
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag reverses zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BinaryWriter streams accesses into the binary columnar format:
// (*Trace).WriteBinary Writes the accesses, then Flushes. The writer
// buffers one block of accesses and encodes it column-at-a-time into
// reused buffers, so writing a trace of any length allocates O(block),
// not O(trace).
type BinaryWriter struct {
	w   *bufio.Writer
	err error
	// multiCore selects the core-column layout; fixed at construction
	// because it is written into the header flags.
	multiCore bool
	// pending is the current un-encoded block.
	pending []Access
	// Per-column encode buffers, reused across blocks.
	kindBuf, addrBuf, widthBuf, valueBuf, coreBuf, varBuf []byte
}

func newBinaryWriter(w io.Writer, multiCore bool) *BinaryWriter {
	bw := &BinaryWriter{
		w:         bufio.NewWriter(w),
		multiCore: multiCore,
		pending:   make([]Access, 0, blockAccesses),
		kindBuf:   make([]byte, 0, blockAccesses/4+1),
		addrBuf:   make([]byte, 0, blockAccesses*binary.MaxVarintLen64),
		widthBuf:  make([]byte, 0, blockAccesses*2),
		valueBuf:  make([]byte, 0, blockAccesses*binary.MaxVarintLen32),
		varBuf:    make([]byte, binary.MaxVarintLen64),
	}
	if multiCore {
		bw.coreBuf = make([]byte, 0, blockAccesses)
	}
	bw.err = bw.writeHeader()
	return bw
}

func (bw *BinaryWriter) writeHeader() error {
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return fmt.Errorf("trace: writing binary header: %w", err)
	}
	if err := bw.w.WriteByte(BinaryVersion); err != nil {
		return fmt.Errorf("trace: writing binary header: %w", err)
	}
	var flags byte
	if bw.multiCore {
		flags |= FlagMultiCore
	}
	if err := bw.w.WriteByte(flags); err != nil {
		return fmt.Errorf("trace: writing binary header: %w", err)
	}
	return nil
}

// Write appends one access to the stream. Kinds beyond Fetch have no
// 2-bit code and are rejected, mirroring the text format's alphabet.
func (bw *BinaryWriter) Write(a Access) error {
	if bw.err != nil {
		return bw.err
	}
	if a.Kind > Fetch {
		//lint:allow hotalloc cold rejection path: formats once, then every later Write returns the stored error
		bw.err = fmt.Errorf("trace: cannot encode access kind %d in binary format", a.Kind)
		return bw.err
	}
	if !bw.multiCore && a.Core != 0 {
		//lint:allow hotalloc cold rejection path: formats once, then every later Write returns the stored error
		bw.err = fmt.Errorf("trace: access with core ID %d in a single-core stream (mark the trace MultiCore)", a.Core)
		return bw.err
	}
	bw.pending = append(bw.pending, a)
	if len(bw.pending) == blockAccesses {
		bw.err = bw.encodeBlock()
	}
	return bw.err
}

// Flush encodes any partial block and flushes the underlying writer.
// The writer remains usable, so Flush can also checkpoint a stream.
func (bw *BinaryWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if len(bw.pending) > 0 {
		if bw.err = bw.encodeBlock(); bw.err != nil {
			return bw.err
		}
	}
	if err := bw.w.Flush(); err != nil {
		bw.err = fmt.Errorf("trace: flushing binary trace: %w", err)
	}
	return bw.err
}

// putUvarint appends a uvarint to dst using the writer's scratch.
func (bw *BinaryWriter) putUvarint(dst []byte, v uint64) []byte {
	n := binary.PutUvarint(bw.varBuf, v)
	return append(dst, bw.varBuf[:n]...)
}

// encodeBlock serialises and emits the pending accesses as one block.
func (bw *BinaryWriter) encodeBlock() error {
	accs := bw.pending
	bw.kindBuf = bw.kindBuf[:(2*len(accs)+7)/8]
	for i := range bw.kindBuf {
		bw.kindBuf[i] = 0
	}
	bw.addrBuf = bw.addrBuf[:0]
	bw.widthBuf = bw.widthBuf[:0]
	bw.valueBuf = bw.valueBuf[:0]
	bw.coreBuf = bw.coreBuf[:0]
	var prevAddr, prevVal uint32
	for i := range accs {
		a := &accs[i]
		bw.kindBuf[i/4] |= byte(a.Kind) << uint((i%4)*2)
		bw.addrBuf = bw.putUvarint(bw.addrBuf, zigzag(int64(a.Addr)-int64(prevAddr)))
		bw.widthBuf = bw.putUvarint(bw.widthBuf, uint64(a.Width))
		bw.valueBuf = bw.putUvarint(bw.valueBuf, uint64(a.Value^prevVal))
		if bw.multiCore {
			bw.coreBuf = append(bw.coreBuf, a.Core)
		}
		prevAddr = a.Addr
		prevVal = a.Value
	}
	if err := bw.writeChunk(uint64(len(accs)), nil); err != nil {
		return err
	}
	cols := [...][]byte{bw.kindBuf, bw.addrBuf, bw.widthBuf, bw.valueBuf, bw.coreBuf}
	n := len(cols)
	if !bw.multiCore {
		n-- // no core column in a single-core stream
	}
	for _, col := range cols[:n] {
		if err := bw.writeChunk(uint64(len(col)), col); err != nil {
			return err
		}
	}
	bw.pending = bw.pending[:0]
	return nil
}

// writeChunk writes a uvarint followed by an optional payload.
func (bw *BinaryWriter) writeChunk(v uint64, payload []byte) error {
	n := binary.PutUvarint(bw.varBuf, v)
	if _, err := bw.w.Write(bw.varBuf[:n]); err != nil {
		return fmt.Errorf("trace: writing binary block: %w", err)
	}
	if payload != nil {
		if _, err := bw.w.Write(payload); err != nil {
			return fmt.Errorf("trace: writing binary block: %w", err)
		}
	}
	return nil
}

// WriteBinary serialises the trace in the binary columnar format. A
// MultiCore trace writes the core-column layout (FlagMultiCore).
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := newBinaryWriter(w, t.MultiCore)
	for _, a := range t.Accesses {
		if err := bw.Write(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Reader is a streaming decoder for the binary columnar format. It
// implements Cursor: replay loops iterate it directly and never hold
// more than one block of column bytes in memory. All decode state lives
// in buffers reused across blocks, so iteration performs zero
// per-access allocations.
type Reader struct {
	br        *bufio.Reader
	err       error
	done      bool
	multiCore bool
	a         Access

	// Current block: raw column bytes and decode positions.
	n, i                       int
	kinds                      []byte
	addrs, widths, vals, cores []byte
	ap, wp, vp                 int
	prevAddr, prevVal          uint32
	blocks, accessesRead       uint64
}

// NewReader validates the header and returns a streaming reader
// positioned before the first access.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading binary header: %w", err)
	}
	if !HasBinaryMagic(hdr[:]) {
		return nil, fmt.Errorf("trace: bad magic %q: not a binary trace", hdr[:len(binaryMagic)])
	}
	if v := hdr[len(binaryMagic)]; v != BinaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary trace version %d (reader supports %d)", v, BinaryVersion)
	}
	if f := hdr[len(binaryMagic)+1]; f&^knownFlags != 0 {
		return nil, fmt.Errorf("trace: unsupported binary trace flags %#x (version %d defines %#x)", f, BinaryVersion, knownFlags)
	}
	return &Reader{br: br, multiCore: hdr[len(binaryMagic)+1]&FlagMultiCore != 0}, nil
}

// Version returns the format version of the open stream.
func (r *Reader) Version() int { return BinaryVersion }

// MultiCore reports whether the stream carries per-access core IDs
// (header flag FlagMultiCore).
func (r *Reader) MultiCore() bool { return r.multiCore }

// Blocks returns the number of blocks decoded so far.
func (r *Reader) Blocks() uint64 { return r.blocks }

// Next advances to the next access, loading the next block when the
// current one is exhausted.
func (r *Reader) Next() bool {
	if r.err != nil || r.done {
		return false
	}
	if r.i >= r.n {
		if !r.loadBlock() {
			return false
		}
	}
	i := r.i
	code := r.kinds[i/4] >> uint((i%4)*2) & 3
	if code > uint8(Fetch) {
		r.err = fmt.Errorf("trace: block %d access %d: invalid kind code %d", r.blocks, i, code)
		return false
	}
	du, nb := binary.Uvarint(r.addrs[r.ap:])
	if nb <= 0 {
		r.err = fmt.Errorf("trace: block %d access %d: truncated address delta", r.blocks, i)
		return false
	}
	r.ap += nb
	addr := int64(r.prevAddr) + unzigzag(du)
	if addr < 0 || addr > int64(^uint32(0)) {
		r.err = fmt.Errorf("trace: block %d access %d: address delta leaves 32-bit range", r.blocks, i)
		return false
	}
	wu, nb := binary.Uvarint(r.widths[r.wp:])
	if nb <= 0 {
		r.err = fmt.Errorf("trace: block %d access %d: truncated width", r.blocks, i)
		return false
	}
	if wu > 255 {
		r.err = fmt.Errorf("trace: block %d access %d: width %d overflows uint8", r.blocks, i, wu)
		return false
	}
	r.wp += nb
	vu, nb := binary.Uvarint(r.vals[r.vp:])
	if nb <= 0 {
		r.err = fmt.Errorf("trace: block %d access %d: truncated value", r.blocks, i)
		return false
	}
	if vu > uint64(^uint32(0)) {
		r.err = fmt.Errorf("trace: block %d access %d: value %d overflows uint32", r.blocks, i, vu)
		return false
	}
	r.vp += nb
	r.prevAddr = uint32(addr)
	r.prevVal = uint32(vu) ^ r.prevVal
	var core uint8
	if r.multiCore {
		core = r.cores[i]
	}
	r.a = Access{Addr: r.prevAddr, Value: r.prevVal, Width: uint8(wu), Kind: Kind(code), Core: core}
	r.i++
	r.accessesRead++
	if r.i == r.n {
		// Strict column framing: every column must be consumed exactly.
		switch {
		case r.ap != len(r.addrs):
			r.err = fmt.Errorf("trace: block %d: %d trailing bytes in address column", r.blocks, len(r.addrs)-r.ap)
		case r.wp != len(r.widths):
			r.err = fmt.Errorf("trace: block %d: %d trailing bytes in width column", r.blocks, len(r.widths)-r.wp)
		case r.vp != len(r.vals):
			r.err = fmt.Errorf("trace: block %d: %d trailing bytes in value column", r.blocks, len(r.vals)-r.vp)
		}
		if r.err != nil {
			return false
		}
	}
	return true
}

// Access returns the current access; the pointee is overwritten by the
// next call to Next.
func (r *Reader) Access() *Access { return &r.a }

// Err returns the first decode error, or nil after clean exhaustion.
func (r *Reader) Err() error { return r.err }

// loadBlock reads and frames the next block into the reused column
// buffers. It returns false at clean EOF or on error.
func (r *Reader) loadBlock() bool {
	nu, err := binary.ReadUvarint(r.br)
	if err != nil {
		if errors.Is(err, io.EOF) {
			r.done = true // clean end at a block boundary
		} else {
			r.err = fmt.Errorf("trace: block %d: reading block length: %w", r.blocks, err)
		}
		return false
	}
	if nu == 0 || nu > maxBlockAccesses {
		r.err = fmt.Errorf("trace: block %d: block length %d outside [1,%d]", r.blocks, nu, maxBlockAccesses)
		return false
	}
	n := int(nu)
	kindLen := (2*n + 7) / 8
	if r.kinds, err = r.readColumn("kind", r.kinds, kindLen, kindLen); err != nil {
		r.err = err
		return false
	}
	// Each varint costs 1..MaxVarintLen64 bytes, so the column lengths
	// are hard-bounded by n; a length outside the bounds is corruption,
	// caught before any allocation is sized by it.
	if r.addrs, err = r.readColumn("address", r.addrs, n, n*binary.MaxVarintLen64); err != nil {
		r.err = err
		return false
	}
	if r.widths, err = r.readColumn("width", r.widths, n, n*2); err != nil {
		r.err = err
		return false
	}
	if r.vals, err = r.readColumn("value", r.vals, n, n*binary.MaxVarintLen32); err != nil {
		r.err = err
		return false
	}
	if r.multiCore {
		// Core IDs are raw bytes, so the column length is exactly n;
		// readColumn's bounds make the framing check implicit.
		if r.cores, err = r.readColumn("core", r.cores, n, n); err != nil {
			r.err = err
			return false
		}
	}
	r.n, r.i = n, 0
	r.ap, r.wp, r.vp = 0, 0, 0
	r.prevAddr, r.prevVal = 0, 0
	r.blocks++
	return true
}

// readColumn reads one length-prefixed column into buf (grown as
// needed, reused across blocks), validating the length bounds first.
func (r *Reader) readColumn(name string, buf []byte, minLen, maxLen int) ([]byte, error) {
	lu, err := binary.ReadUvarint(r.br)
	if err != nil {
		return buf, fmt.Errorf("trace: block %d: reading %s column length: %w", r.blocks, name, noEOF(err))
	}
	if lu < uint64(minLen) || lu > uint64(maxLen) {
		return buf, fmt.Errorf("trace: block %d: %s column length %d outside [%d,%d]", r.blocks, name, lu, minLen, maxLen)
	}
	l := int(lu)
	if cap(buf) < l {
		buf = make([]byte, l)
	}
	buf = buf[:l]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return buf, fmt.Errorf("trace: block %d: reading %s column: %w", r.blocks, name, noEOF(err))
	}
	return buf, nil
}

// noEOF upgrades a bare EOF to ErrUnexpectedEOF: inside a block, an EOF
// is always a truncation, and the distinction matters to callers that
// treat io.EOF as clean.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadBinary materialises a whole binary trace. Replay paths should
// prefer NewReader and stream; ReadBinary is for tools and tests that
// need the []Access form.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := New(1024)
	t.MultiCore = br.MultiCore()
	for br.Next() {
		t.Append(*br.Access())
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
