// Package api sits outside internal/: its unreferenced exports are
// public API, out of the analyzer's scope.
package api

// Public is referenced by nothing, but it is not under internal/.
func Public() {}
