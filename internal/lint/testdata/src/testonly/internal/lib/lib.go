// Package lib is the testonly lint fixture: each exported declaration
// below is either reached from cmd/tool (clean), reached only from
// lib_test.go or not at all (a finding), or excused.
package lib

import "strconv"

// Limit is a constant; constants are out of the analyzer's scope.
const Limit = 3

// Counter is used by cmd/tool: clean.
type Counter struct {
	// N is a field; fields are out of scope even when only tests read them.
	N int
}

// NewCounter is used by cmd/tool: clean.
func NewCounter() *Counter { return &Counter{} }

// Add is called by cmd/tool: clean.
func (c *Counter) Add(d int) { c.N += d }

// String satisfies fmt.Stringer. Nothing names it directly, yet fmt
// calls it through the interface: exempt.
func (c *Counter) String() string { return strconv.Itoa(c.N) }

// Size satisfies cmd/tool's sizer interface and is called only through
// it: exempt.
func (c *Counter) Size() int { return c.N }

// Reset is a method only lib_test.go calls: a finding.
func (c *Counter) Reset() { c.N = 0 }

// Unused is referenced by nothing at all: a finding.
func Unused() int { return 1 }

// OnlyTests is referenced only by lib_test.go: a finding.
func OnlyTests() int { return 2 }

// Fact calls only itself; recursion is not a caller: a finding.
func Fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * Fact(n-1)
}

// Debug is an exported variable only lib_test.go sets: a finding.
var Debug bool

// Scratch is an exported type nothing uses: a finding.
type Scratch struct{}

// Decode inverts Counter.Add for the round-trip test.
//
//lint:allow testonly verification oracle: the round-trip test proves Add reversible through it
func Decode(c *Counter, d int) { c.N -= d }

// helper is unexported: out of scope.
func helper() int { return 2 * Limit }
