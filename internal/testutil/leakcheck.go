//lint:allow testonly every helper here exists for _test.go files; that is the package's job

// Package testutil holds helpers shared by the test suites of several
// packages: the goroutine-leak assertion used around the runner engine
// and the lpmemd HTTP surface, and the seeded energy-model perturbation
// the property tests sweep.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// VerifyNoLeaks snapshots the goroutine count and registers a cleanup
// that fails the test if more goroutines are still alive after a settle
// loop. Call it first in a test — before engines or test servers start —
// so its cleanup runs last (cleanups are LIFO) and observes a fully
// shut-down system. The settle loop exists because abandoned runner jobs
// legitimately finish in the background shortly after a batch returns.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		now := runtime.NumGoroutine()
		for now > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			now = runtime.NumGoroutine()
		}
		if now > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after settling\n%s", before, now, buf[:n])
		}
	})
}
