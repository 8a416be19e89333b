package nwsnet

import "time"

// clock is the time source of every timed decision in this package: the
// loop ticker behind the repairer, the cluster agent's lease renewals and
// the forecaster's refresher; the tenant token buckets; the QueueWait
// timer of a saturated server; and the name server's lease and
// registration expiry. Components use wallClock; package tests swap in a
// fake they advance by hand, so a lease lapses or a bucket refills without
// anyone waiting.
//
// Two kinds of time stay on the wall clock. Socket deadlines, including the
// mux's timeout laps, because the kernel owns them; and latency-metric
// timestamps, because they measure real time.
type clock interface {
	now() time.Time
	// timer delivers once, d from now, until stop is called.
	timer(d time.Duration) (c <-chan time.Time, stop func())
	// ticker delivers every d from now until stop is called.
	ticker(d time.Duration) (c <-chan time.Time, stop func())
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) timer(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

func (wallClock) ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}
