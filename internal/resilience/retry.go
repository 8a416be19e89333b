// Package resilience provides the fault-tolerance building blocks the
// distributed NWS daemons share: a bounded retry policy whose backoff
// doubles from a base delay up to a 2 s cap, a circuit breaker that limits
// a failing endpoint to one probe at a time, a small connection pool, and —
// in the chaos subpackage — a deterministic fault-injection proxy for
// exercising the stack under network failure.
//
// The package is deliberately mechanism-only: it knows nothing about the
// nwsnet wire protocol. Policy decisions (what counts as a failure, how
// many replicas make a quorum) live with the callers.
package resilience

import (
	"context"
	"errors"
	"time"
)

// terminalError marks an error as not worth retrying while preserving its
// message and unwrap chain.
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// Permanent wraps err so Policy.Do does not retry it. The wrapped error
// keeps its message and remains visible to errors.Is/As. A nil err returns
// nil.
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

// maxDelay caps the backoff between two attempts.
const maxDelay = 2 * time.Second

// Policy describes a bounded retry loop: up to MaxAttempts tries, the
// backoff between them doubling from BaseDelay up to 2 s. The zero value is
// usable and selects the defaults noted on each field.
type Policy struct {
	MaxAttempts int           // total attempts including the first (0 selects 3)
	BaseDelay   time.Duration // backoff before the first retry (0 selects 50 ms)
	// OnRetry, when non-nil, observes every retry that is about to happen:
	// attempt is the 1-based number of the attempt that just failed with
	// err, and delay is the backoff about to be taken.
	OnRetry func(attempt int, delay time.Duration, err error)
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	return p
}

// delay returns the backoff taken after the attempt-th failure (1-based):
// BaseDelay doubled attempt-1 times, capped at maxDelay.
func (p Policy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// Do runs op until it succeeds, fails terminally (a Permanent error or a
// cancelled context), exhausts MaxAttempts, or ctx is done. The returned
// error is the one from the final attempt.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if IsTerminal(err) || errors.Is(err, context.Canceled) || attempt >= p.MaxAttempts || ctx.Err() != nil {
			return err
		}
		d := p.delay(attempt)
		if p.OnRetry != nil {
			p.OnRetry(attempt, d, err)
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err // ctx done during backoff: report the attempt's error
		}
	}
}
