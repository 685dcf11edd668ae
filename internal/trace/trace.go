// Package trace provides memory-access traces: the lingua franca of every
// optimization in this repository.
//
// A Trace is an ordered sequence of Access records (address, kind, width,
// value). Traces are produced by the µRISC interpreter (internal/isa, run
// per kernel by internal/workloads), by the synthetic generators in this
// package, or below a cache as its line-granular miss traffic
// (internal/cache), and consumed by the partitioning, clustering, caching,
// encoding and scheduling passes.
//
// Memory (memory.go) is the one byte store: a sparse memory image that
// the µRISC core runs on and from which the tag-only cache models read
// the lines crossing a cache boundary.
//
//lint:hotpath
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind discriminates the access type.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// Fetch is an instruction fetch.
	Fetch
)

// String returns the single-letter mnemonic used in the text format.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Fetch:
		return "F"
	default:
		return "?"
	}
}

// ParseKind converts a mnemonic back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "R":
		return Read, nil
	case "W":
		return Write, nil
	case "F":
		return Fetch, nil
	}
	return 0, fmt.Errorf("trace: unknown access kind %q", s)
}

// Access is a single memory reference.
type Access struct {
	// Addr is the byte address of the reference.
	Addr uint32
	// Value is the datum transferred (zero-extended for narrow widths).
	Value uint32
	// Width is the transfer size in bytes: 1, 2 or 4 for a core's load,
	// store or fetch, the line size for a cache's miss traffic (refills
	// and write-backs), which the DRAM model reads.
	Width uint8
	// Kind is the access type.
	Kind Kind
	// Core identifies the issuing core in a multi-core interleaved
	// trace. Single-core traces leave it zero; it is serialised (text
	// fifth field, LPMT core column) only when Trace.MultiCore is set.
	Core uint8
}

// Trace is an ordered sequence of accesses.
type Trace struct {
	Accesses []Access
	// MultiCore marks a per-core annotated trace: accesses carry
	// meaningful Core IDs and both serialisation formats persist them.
	// The flag — not the presence of non-zero Core values — decides the
	// on-disk representation, so a multi-core trace in which every
	// access happens to come from core 0 still round-trips losslessly.
	MultiCore bool
}

// New returns an empty trace with the given capacity hint.
func New(capacity int) *Trace {
	return &Trace{Accesses: make([]Access, 0, capacity)}
}

// Append adds a single access.
func (t *Trace) Append(a Access) {
	if len(t.Accesses) == cap(t.Accesses) {
		t.grow()
	}
	t.Accesses = append(t.Accesses, a)
}

// grow doubles the capacity of Accesses. append alone grows a large
// slice by about 1.25x, which copies a multi-million-access trace about
// four times over. The new slice comes from make and copy, not append or
// slices.Grow: those clear the unused tail eagerly, faulting in memory
// that may never be written.
func (t *Trace) grow() {
	//lint:allow hotalloc doubling: O(log n) allocations per trace
	grown := make([]Access, len(t.Accesses), max(2*cap(t.Accesses), 16))
	copy(grown, t.Accesses)
	t.Accesses = grown
}

// Len returns the number of accesses.
func (t *Trace) Len() int { return len(t.Accesses) }

// Filter returns a new trace containing only accesses for which keep
// returns true. The receiver is unmodified.
func (t *Trace) Filter(keep func(Access) bool) *Trace {
	out := New(len(t.Accesses) / 2)
	out.MultiCore = t.MultiCore
	for _, a := range t.Accesses {
		if keep(a) {
			out.Append(a)
		}
	}
	return out
}

// Data returns the sub-trace of loads and stores (no fetches).
func (t *Trace) Data() *Trace {
	return t.Filter(func(a Access) bool { return a.Kind != Fetch })
}

// WriteText serialises the trace in a line-oriented text format:
//
//	<kind> <addr-hex> <width> <value-hex>
//
// A multi-core trace appends a fifth field, the decimal core ID:
//
//	<kind> <addr-hex> <width> <value-hex> <core>
//
// The format is intentionally trivial so traces can be inspected, diffed
// and crafted by hand in tests.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// strconv.Append* into one reused buffer: serialising a trace is one
	// write per access, and fmt's boxing used to dominate the profile.
	buf := make([]byte, 0, 36)
	for _, a := range t.Accesses {
		buf = buf[:0]
		buf = append(buf, a.Kind.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(a.Addr), 16)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(a.Width), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(a.Value), 16)
		if t.MultiCore {
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, uint64(a.Core), 10)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTextLine bounds a single line of the text format. The default
// bufio.Scanner limit (64 KiB) is plenty for well-formed lines (four
// short fields), but garbage or machine-generated input used to die
// with an unhelpful "bufio.Scanner: token too long"; the explicit
// buffer raises the ceiling and lets ReadText attribute the failure to
// a line number.
const maxTextLine = 1 << 20

// ReadText parses the format produced by WriteText. A file must commit
// to one shape: all accesses carry a core field (five fields per line,
// the trace comes back MultiCore) or none do; mixing the two is
// reported as a parse error rather than silently defaulting cores.
func ReadText(r io.Reader) (*Trace, error) {
	t := New(1024)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxTextLine)
	line := 0
	sawCore, sawPlain := false, false
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 && len(fields) != 5 {
			return nil, fmt.Errorf("trace: line %d: want 4 or 5 fields, got %d", line, len(fields))
		}
		kind, err := ParseKind(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		addr, err := strconv.ParseUint(fields[1], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address: %w", line, err)
		}
		width, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad width: %w", line, err)
		}
		value, err := strconv.ParseUint(fields[3], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad value: %w", line, err)
		}
		var core uint64
		if len(fields) == 5 {
			core, err = strconv.ParseUint(fields[4], 10, 8)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad core ID: %w", line, err)
			}
			sawCore = true
		} else {
			sawPlain = true
		}
		if sawCore && sawPlain {
			return nil, fmt.Errorf("trace: line %d: mixed 4- and 5-field lines (core IDs must be on every access or none)", line)
		}
		t.Append(Access{Addr: uint32(addr), Value: uint32(value), Width: uint8(width), Kind: kind, Core: uint8(core)})
	}
	t.MultiCore = sawCore
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("trace: line %d: line longer than %d bytes: %w", line+1, maxTextLine, err)
		}
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return t, nil
}
