//go:build unix

package match

import "syscall"

// processCPU returns the process's user plus system CPU time in
// nanoseconds, and whether the platform reports it.
func processCPU() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), true
}
