package main

// lpmem trace subcommands: the CLI surface of the two trace formats.
//
//	lpmem trace <kernel> [seed]       run a kernel, dump its trace as text
//	lpmem trace convert -i IN -o OUT  interconvert text and binary losslessly
//	                                  (-to text prints either format as text)
//	lpmem trace info FILE             header, counts and density of a trace
//	lpmem trace replay FILE           stream a trace through a cache, print stats
//
// Formats are sniffed from the 4-byte LPMT magic, so every subcommand
// accepts either representation; "-" means stdin/stdout. replay is the
// zero-allocation path: a binary input streams through the cache via
// trace.Reader without ever materialising a []Access, which is what the
// CI trace stage uses to prove both formats replay identically.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"lpmem/internal/cache"
	"lpmem/internal/trace"
	"lpmem/internal/workloads"
)

// runTrace dispatches the trace subcommands; a non-subcommand first
// argument is a kernel name (the original `lpmem trace <kernel>` form).
func runTrace(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: lpmem trace <kernel> [seed] | convert | info | replay (see lpmem trace -h)")
		return 2
	}
	switch args[0] {
	case "convert":
		return traceConvert(args[1:], stdout, stderr)
	case "info":
		return traceInfo(args[1:], stdout, stderr)
	case "replay":
		return traceReplay(args[1:], stdout, stderr)
	}
	return traceKernel(args, stdout, stderr)
}

// traceKernel implements the original `lpmem trace <kernel> [seed]`.
func traceKernel(args []string, stdout, stderr io.Writer) int {
	seed := int64(1)
	if len(args) >= 2 {
		s, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "bad seed %q: %v\n", args[1], err)
			return 2
		}
		seed = s
	}
	runs, err := workloads.Traces(seed, args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := runs[0].Trace.WriteText(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// openInput resolves "-" to stdin.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// openOutput resolves "-" to stdout.
func openOutput(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// sniffFormat peeks at a buffered reader and reports "binary" or
// "text". An empty input is a valid, empty text trace.
func sniffFormat(br *bufio.Reader) string {
	head, _ := br.Peek(4)
	if trace.HasBinaryMagic(head) {
		return "binary"
	}
	return "text"
}

// readTrace materialises a trace in either format from a reader.
func readTrace(br *bufio.Reader) (*trace.Trace, string, error) {
	format := sniffFormat(br)
	var t *trace.Trace
	var err error
	if format == "binary" {
		t, err = trace.ReadBinary(br)
	} else {
		t, err = trace.ReadText(br)
	}
	return t, format, err
}

// traceConvert implements `lpmem trace convert`.
func traceConvert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "-", "input trace (text or binary; - = stdin)")
	out := fs.String("o", "-", "output path (- = stdout)")
	to := fs.String("to", "auto", "output format: text, binary, or auto (the opposite of the input)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "lpmem trace convert: unexpected arguments %v\n", fs.Args())
		return 2
	}
	switch *to {
	case "auto", "text", "binary":
	default:
		fmt.Fprintf(stderr, "lpmem trace convert: -to %q (want auto, text or binary)\n", *to)
		return 2
	}
	r, err := openInput(*in)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Read-side close: the error carries nothing once the read succeeded.
	defer func() { _ = r.Close() }()
	t, from, err := readTrace(bufio.NewReader(r))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	target := *to
	if target == "auto" {
		if from == "text" {
			target = "binary"
		} else {
			target = "text"
		}
	}
	w, closeOut, err := openOutput(*out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if target == "binary" {
		err = t.WriteBinary(w)
	} else {
		err = t.WriteText(w)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// traceInfo implements `lpmem trace info FILE`: header, per-kind access
// counts, address range and on-disk density. Binary inputs stream
// through trace.Reader, so info on a multi-gigabyte trace holds one
// block in memory.
func traceInfo(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: lpmem trace info FILE")
		return 2
	}
	r, err := openInput(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Read-side close: the error carries nothing once the read succeeded.
	defer func() { _ = r.Close() }()
	var fileBytes int64 = -1
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			fileBytes = st.Size()
		}
	}
	br := bufio.NewReader(r)
	format := sniffFormat(br)

	var counts [3]uint64
	var total uint64
	var lo, hi uint32
	var blocks uint64
	var maxCore uint8
	multiCore := false
	scan := func(a *trace.Access) {
		if a.Kind <= trace.Fetch {
			counts[a.Kind]++
		}
		if total == 0 || a.Addr < lo {
			lo = a.Addr
		}
		if total == 0 || a.Addr > hi {
			hi = a.Addr
		}
		if a.Core > maxCore {
			maxCore = a.Core
		}
		total++
	}
	if format == "binary" {
		tr, err := trace.NewReader(br)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for tr.Next() {
			scan(tr.Access())
		}
		if err := tr.Err(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		blocks = tr.Blocks()
		multiCore = tr.MultiCore()
		fmt.Fprintf(stdout, "format:     binary (LPMT v%d)\n", tr.Version())
	} else {
		t, err := trace.ReadText(br)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for i := range t.Accesses {
			scan(&t.Accesses[i])
		}
		multiCore = t.MultiCore
		fmt.Fprintf(stdout, "format:     text\n")
	}
	if multiCore {
		fmt.Fprintf(stdout, "cores:      %d (multi-core)\n", int(maxCore)+1)
	}
	fmt.Fprintf(stdout, "accesses:   %d\n", total)
	fmt.Fprintf(stdout, "reads:      %d\n", counts[trace.Read])
	fmt.Fprintf(stdout, "writes:     %d\n", counts[trace.Write])
	fmt.Fprintf(stdout, "fetches:    %d\n", counts[trace.Fetch])
	if total > 0 {
		fmt.Fprintf(stdout, "addr range: [0x%x, 0x%x]\n", lo, hi)
	}
	if format == "binary" {
		fmt.Fprintf(stdout, "blocks:     %d\n", blocks)
	}
	if fileBytes >= 0 && total > 0 {
		fmt.Fprintf(stdout, "file bytes: %d (%.2f B/access)\n", fileBytes, float64(fileBytes)/float64(total))
	}
	return 0
}

// traceReplay implements `lpmem trace replay FILE`: run the trace's
// data accesses through a cache and print the statistics on one
// diff-friendly line. The CI trace stage replays each trace in both
// formats and requires identical output.
func traceReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sets := fs.Int("sets", 64, "cache sets (power of two)")
	ways := fs.Int("ways", 4, "cache associativity")
	line := fs.Int("line", 32, "cache line size in bytes (power of two)")
	writeThrough := fs.Bool("write-through", false, "write-through instead of write-back")
	noAllocate := fs.Bool("no-allocate", false, "store misses do not allocate the line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: lpmem trace replay [flags] FILE")
		return 2
	}
	cfg := cache.Config{
		Sets: *sets, Ways: *ways, LineSize: *line,
		WriteBack: !*writeThrough, WriteAllocate: !*noAllocate,
	}
	c, err := cache.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	r, err := openInput(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Read-side close: the error carries nothing once the read succeeded.
	defer func() { _ = r.Close() }()
	br := bufio.NewReader(r)
	var cur trace.Cursor
	if sniffFormat(br) == "binary" {
		// The streaming path: the binary trace replays without ever
		// materialising a []Access.
		cur, err = trace.NewReader(br)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		t, err := trace.ReadText(br)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cur = t.Cursor()
	}
	st, err := c.ReplayCursor(cur)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "accesses=%d hits=%d misses=%d refills=%d writebacks=%d writethroughs=%d hitrate=%.6f\n",
		st.Accesses, st.Hits, st.Misses, st.Refills, st.WriteBacks, st.WriteThroughs, st.HitRate())
	return 0
}
