//go:build linux

package prochost

import "syscall"

// rusageThread is RUSAGE_THREAD, absent from package syscall's constants.
const rusageThread = 1

// threadCPU returns the calling OS thread's user plus system CPU seconds,
// from getrusage(RUSAGE_THREAD); ok is false if the call fails.
func threadCPU() (seconds float64, ok bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, false
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, true
}
