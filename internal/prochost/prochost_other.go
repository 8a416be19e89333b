//go:build !linux

package prochost

// threadCPU reports that a thread's CPU time is unreadable:
// getrusage(RUSAGE_THREAD) is Linux's, so RunSpin reports 0 here.
func threadCPU() (seconds float64, ok bool) { return 0, false }
