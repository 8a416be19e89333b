// Package resilience provides the fault-tolerance building blocks the
// distributed NWS daemons share: bounded retry policies with exponential
// backoff and jitter, health-checked connection pools, and — in the chaos
// subpackage — a deterministic fault-injection proxy for exercising the
// stack under network failure.
//
// The package is deliberately mechanism-only: it knows nothing about the
// nwsnet wire protocol. Policy decisions (what counts as retryable, how
// many replicas make a quorum) live with the callers.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Class partitions errors by whether another attempt could help.
type Class int

const (
	// Retryable errors are transient — a later attempt may succeed
	// (connection refused, timeout, a connection dying mid-exchange).
	Retryable Class = iota
	// Terminal errors are definitive — retrying cannot change the outcome
	// (a server that answered with a protocol error, a cancelled context).
	Terminal
)

// Classifier decides whether an error is worth retrying.
type Classifier func(error) Class

// terminalError marks an error as not worth retrying while preserving its
// message and unwrap chain.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Permanent wraps err so DefaultClassifier reports it Terminal. The wrapped
// error keeps its message and remains visible to errors.Is/As. A nil err
// returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &terminalError{err: err}
}

// IsTerminal reports whether err (or anything it wraps) was marked with
// Permanent.
func IsTerminal(err error) bool {
	var te *terminalError
	return errors.As(err, &te)
}

// DefaultClassifier treats Permanent-wrapped errors and context
// cancellation as Terminal and everything else — transport failures of any
// shape — as Retryable.
func DefaultClassifier(err error) Class {
	if IsTerminal(err) || errors.Is(err, context.Canceled) {
		return Terminal
	}
	return Retryable
}

// Policy describes a bounded retry loop: up to MaxAttempts tries with
// exponential backoff between them. The zero value is usable and selects
// the defaults noted on each field.
type Policy struct {
	MaxAttempts int           // total attempts including the first (0 selects 3)
	BaseDelay   time.Duration // backoff before the first retry (0 selects 50 ms)
	MaxDelay    time.Duration // backoff cap (0 selects 2 s)
	Multiplier  float64       // backoff growth factor (0 selects 2)
	Jitter      float64       // ± fraction of each delay randomized (0 = none)
	Classify    Classifier    // nil selects DefaultClassifier

	// Rand yields values in [0, 1) for jitter; nil selects a process-global
	// locked source. Tests inject a seeded source to make backoff schedules
	// deterministic.
	Rand func() float64
	// Sleep waits for d or until ctx is done; nil selects the real clock.
	// Tests replace it to run retry schedules in virtual time.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes every retry that is about to happen:
	// attempt is the 1-based number of the attempt that just failed with
	// err, and delay is the backoff about to be taken.
	OnRetry func(attempt int, delay time.Duration, err error)
}

// globalRand backs Policy.Rand when none is injected.
var globalRand = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(time.Now().UnixNano()))}

func lockedFloat64() float64 {
	globalRand.mu.Lock()
	defer globalRand.mu.Unlock()
	return globalRand.r.Float64()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.Classify == nil {
		p.Classify = DefaultClassifier
	}
	if p.Rand == nil {
		p.Rand = lockedFloat64
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// delay returns the backoff taken after the attempt-th failure (1-based),
// jitter included.
func (p Policy) delay(attempt int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*p.Rand()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, fails terminally, exhausts MaxAttempts, or
// ctx is done. The returned error is the one from the final attempt.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if p.Classify(err) == Terminal || attempt >= p.MaxAttempts || ctx.Err() != nil {
			return err
		}
		d := p.delay(attempt)
		if p.OnRetry != nil {
			p.OnRetry(attempt, d, err)
		}
		if p.Sleep(ctx, d) != nil {
			return err // ctx done during backoff: report the attempt's error
		}
	}
}
