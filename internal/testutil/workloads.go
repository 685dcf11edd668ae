package testutil

import "lpmem/internal/workloads"

// MustRun is workloads.Run for tests and benchmarks where failure is a
// bug.
func MustRun(inst *workloads.Instance) *workloads.Result {
	r, err := workloads.Run(inst)
	if err != nil {
		//lint:allow panicfree Must* helper for tests and benchmarks; panicking on failure is the documented contract
		panic(err)
	}
	return r
}
