package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTemp drops content into a temp file and returns its path.
func writeTemp(t *testing.T, name string, content []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const sampleText = "# hand-crafted\nR 10 4 ff\nW 20 2 1\nF 0 4 deadbeef\nR ffffffff 1 0\n"

// canonText is sampleText after one parse/serialise cycle (comments
// dropped): the canonical form round-trips must reproduce byte-for-byte.
const canonText = "R 10 4 ff\nW 20 2 1\nF 0 4 deadbeef\nR ffffffff 1 0\n"

// TestTraceKernelDump: the original `lpmem trace <kernel>` form still
// emits a parseable text trace.
func TestTraceKernelDump(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"trace", "fir"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.Len() == 0 || !strings.ContainsAny(out.String()[:1], "RWF") {
		t.Fatalf("kernel dump does not look like a text trace: %.80q", out.String())
	}
	if code := run([]string{"trace", "nosuchkernel"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown kernel exit %d", code)
	}
	if code := run([]string{"trace", "fir", "notanumber"}, &out, &errOut); code != 2 {
		t.Fatalf("bad seed exit %d", code)
	}
}

// TestTraceConvertRoundTrip: text -> binary -> text must be lossless
// and byte-identical to the canonical text form, and the intermediate
// file must carry the binary magic.
func TestTraceConvertRoundTrip(t *testing.T) {
	txt := writeTemp(t, "in.txt", []byte(sampleText))
	bin := filepath.Join(t.TempDir(), "out.lpmt")
	var out, errOut bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-o", bin}, &out, &errOut); code != 0 {
		t.Fatalf("to-binary exit %d, stderr: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("LPMT")) {
		t.Fatalf("converted file lacks LPMT magic: %x", raw[:8])
	}
	out.Reset()
	if code := run([]string{"trace", "convert", "-i", bin, "-o", "-"}, &out, &errOut); code != 0 {
		t.Fatalf("to-text exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != canonText {
		t.Fatalf("round trip changed the trace:\n got %q\nwant %q", out.String(), canonText)
	}
}

// TestTraceConvertExplicitTarget: -to overrides auto-detection, so
// text -> text is a canonicaliser.
func TestTraceConvertExplicitTarget(t *testing.T) {
	txt := writeTemp(t, "in.txt", []byte(sampleText))
	var out, errOut bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-to", "text"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != canonText {
		t.Fatalf("canonicalise: got %q, want %q", out.String(), canonText)
	}
	if code := run([]string{"trace", "convert", "-to", "yaml"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -to exit %d", code)
	}
	if code := run([]string{"trace", "convert", "-i", filepath.Join(t.TempDir(), "missing")}, &out, &errOut); code != 1 {
		t.Fatalf("missing input exit %d", code)
	}
}

// TestTraceConvertToText prints both formats as identical text.
func TestTraceConvertToText(t *testing.T) {
	txt := writeTemp(t, "in.txt", []byte(sampleText))
	bin := filepath.Join(t.TempDir(), "out.lpmt")
	var out, errOut bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-o", bin}, &out, &errOut); code != 0 {
		t.Fatalf("convert exit %d: %s", code, errOut.String())
	}
	var fromText, fromBin bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-to", "text"}, &fromText, &errOut); code != 0 {
		t.Fatalf("text to text exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"trace", "convert", "-i", bin, "-to", "text"}, &fromBin, &errOut); code != 0 {
		t.Fatalf("binary to text exit %d: %s", code, errOut.String())
	}
	if fromText.String() != canonText || fromBin.String() != canonText {
		t.Fatalf("text output diverged:\n text %q\n bin  %q\nwant %q", fromText.String(), fromBin.String(), canonText)
	}
}

// TestTraceInfo reports format, counts and range for both formats.
func TestTraceInfo(t *testing.T) {
	txt := writeTemp(t, "in.txt", []byte(sampleText))
	bin := filepath.Join(t.TempDir(), "out.lpmt")
	var out, errOut bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-o", bin}, &out, &errOut); code != 0 {
		t.Fatalf("convert exit %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"trace", "info", txt}, &out, &errOut); code != 0 {
		t.Fatalf("info text exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"format:     text", "accesses:   4", "reads:      2", "writes:     1", "fetches:    1", "addr range: [0x0, 0xffffffff]"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info(text) missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := run([]string{"trace", "info", bin}, &out, &errOut); code != 0 {
		t.Fatalf("info binary exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"format:     binary (LPMT v1)", "accesses:   4", "blocks:     1", "file bytes:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info(binary) missing %q:\n%s", want, out.String())
		}
	}
}

// TestTraceReplayFormatEquivalence is the CLI face of the CI trace
// stage: replaying the same trace in both formats must print identical
// cache statistics.
func TestTraceReplayFormatEquivalence(t *testing.T) {
	// A kernel trace gives the replay real locality structure.
	var dump, errOut bytes.Buffer
	if code := run([]string{"trace", "dct"}, &dump, &errOut); code != 0 {
		t.Fatalf("kernel dump exit %d: %s", code, errOut.String())
	}
	txt := writeTemp(t, "dct.txt", dump.Bytes())
	bin := filepath.Join(t.TempDir(), "dct.lpmt")
	var out bytes.Buffer
	if code := run([]string{"trace", "convert", "-i", txt, "-o", bin}, &out, &errOut); code != 0 {
		t.Fatalf("convert exit %d: %s", code, errOut.String())
	}
	var fromText, fromBin bytes.Buffer
	if code := run([]string{"trace", "replay", txt}, &fromText, &errOut); code != 0 {
		t.Fatalf("replay text exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"trace", "replay", bin}, &fromBin, &errOut); code != 0 {
		t.Fatalf("replay binary exit %d: %s", code, errOut.String())
	}
	if fromText.String() != fromBin.String() {
		t.Fatalf("replay stats diverged between formats:\n text: %s bin:  %s", fromText.String(), fromBin.String())
	}
	if !strings.HasPrefix(fromText.String(), "accesses=") || !strings.Contains(fromText.String(), "hitrate=") {
		t.Fatalf("replay output shape: %s", fromText.String())
	}
	// Geometry flags change the outcome but not the equivalence.
	fromText.Reset()
	fromBin.Reset()
	args := []string{"trace", "replay", "-sets", "8", "-ways", "1", "-line", "16", "-write-through"}
	if code := run(append(args, txt), &fromText, &errOut); code != 0 {
		t.Fatalf("replay text (flags) exit %d: %s", code, errOut.String())
	}
	if code := run(append(args, bin), &fromBin, &errOut); code != 0 {
		t.Fatalf("replay binary (flags) exit %d: %s", code, errOut.String())
	}
	if fromText.String() != fromBin.String() {
		t.Fatalf("flagged replay stats diverged:\n text: %s bin:  %s", fromText.String(), fromBin.String())
	}
	// Bad geometry is a runtime error, not a panic.
	if code := run([]string{"trace", "replay", "-sets", "3", txt}, &out, &errOut); code != 1 {
		t.Fatalf("bad geometry exit %d", code)
	}
}

// TestTraceUsageErrors: arity and argument validation.
func TestTraceUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"trace"}, &out, &errOut); code != 2 {
		t.Fatalf("bare trace exit %d", code)
	}
	if code := run([]string{"trace", "info"}, &out, &errOut); code != 2 {
		t.Fatalf("info arity exit %d", code)
	}
	if code := run([]string{"trace", "replay"}, &out, &errOut); code != 2 {
		t.Fatalf("replay arity exit %d", code)
	}
	if code := run([]string{"trace", "convert", "-i", "a", "-o", "b", "extra"}, &out, &errOut); code != 2 {
		t.Fatalf("convert extra args exit %d", code)
	}
}
