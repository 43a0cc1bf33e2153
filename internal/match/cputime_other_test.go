//go:build !unix

package match

// processCPU reports no CPU time where getrusage is unavailable.
func processCPU() (int64, bool) { return 0, false }
