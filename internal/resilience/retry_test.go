package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// virtualSleep records requested delays without waiting.
func virtualSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, Sleep: virtualSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Fatalf("calls = %d, backoffs = %d; want 3 and 2", calls, len(delays))
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 4, Sleep: virtualSleep(&delays)}
	calls := 0
	sentinel := errors.New("still down")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if calls != 4 || len(delays) != 3 {
		t.Fatalf("calls = %d, backoffs = %d; want 4 and 3", calls, len(delays))
	}
}

func TestDoStopsOnTerminal(t *testing.T) {
	p := Policy{MaxAttempts: 5, Sleep: virtualSleep(new([]time.Duration))}
	calls := 0
	inner := errors.New("bad request")
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(inner)
	})
	if calls != 1 {
		t.Fatalf("terminal error retried: %d calls", calls)
	}
	if !errors.Is(err, inner) || err.Error() != "bad request" {
		t.Fatalf("terminal error mangled: %v", err)
	}
	if !IsTerminal(err) {
		t.Fatal("IsTerminal lost through Do")
	}
	if IsTerminal(inner) {
		t.Fatal("unwrapped error reported terminal")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	if err == nil {
		t.Fatal("Do succeeded after cancel")
	}
	if calls > 3 {
		t.Fatalf("kept retrying after cancel: %d calls", calls)
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	// A seeded Rand makes the jittered schedule reproducible.
	mk := func() Policy {
		rng := rand.New(rand.NewSource(7))
		return Policy{
			BaseDelay:  100 * time.Millisecond,
			MaxDelay:   time.Second,
			Multiplier: 2,
			Jitter:     0.2,
			Rand:       rng.Float64,
		}
	}
	a, b := mk(), mk()
	for i := 1; i <= 6; i++ {
		da, db := a.withDefaults().delay(i), b.withDefaults().delay(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v with same seed", i, da, db)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 750 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{100, 200, 400, 750, 750} // ms, capped
	for i, w := range want {
		if got := p.withDefaults().delay(i + 1); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Jitter stays within the ± band.
	pj := Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5, Rand: rand.New(rand.NewSource(1)).Float64}
	for i := 0; i < 50; i++ {
		d := pj.withDefaults().delay(1)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 150ms]", d)
		}
	}
}

func TestOnRetryObservesEachRetry(t *testing.T) {
	var seen []string
	p := Policy{
		MaxAttempts: 3,
		Sleep:       virtualSleep(new([]time.Duration)),
		OnRetry: func(attempt int, d time.Duration, err error) {
			seen = append(seen, fmt.Sprintf("%d:%v", attempt, err))
		},
	}
	_ = p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
	if len(seen) != 2 || seen[0] != "1:x" || seen[1] != "2:x" {
		t.Fatalf("OnRetry saw %v", seen)
	}
}

func TestDefaultClassifier(t *testing.T) {
	if DefaultClassifier(errors.New("dial tcp: refused")) != Retryable {
		t.Error("transport error not retryable")
	}
	if DefaultClassifier(Permanent(errors.New("bad"))) != Terminal {
		t.Error("permanent error not terminal")
	}
	if DefaultClassifier(fmt.Errorf("wrapped: %w", context.Canceled)) != Terminal {
		t.Error("cancellation not terminal")
	}
}
