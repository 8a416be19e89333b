package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordRetries returns an OnRetry hook appending each backoff to delays.
func recordRetries(delays *[]time.Duration) func(int, time.Duration, error) {
	return func(_ int, d time.Duration, _ error) { *delays = append(*delays, d) }
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, OnRetry: recordRetries(&delays)}
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
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, OnRetry: recordRetries(&delays)}
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
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
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

	// A cancellation is terminal however deeply it is wrapped, even from an
	// op whose own context is still live.
	calls = 0
	err = p.Do(context.Background(), func(context.Context) error {
		calls++
		return fmt.Errorf("wrapped: %w", context.Canceled)
	})
	if calls != 1 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation: %d calls, err %v; want 1 call", calls, err)
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

// TestBackoffScheduleDeterministic: the backoffs Do takes are exactly
// delay(1), delay(2), …, the same on every run.
func TestBackoffScheduleDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	for run := 0; run < 2; run++ {
		var delays []time.Duration
		p.OnRetry = recordRetries(&delays)
		p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
		if fmt.Sprint(delays) != fmt.Sprint(want) {
			t.Fatalf("run %d: backoffs %v, want %v", run, delays, want)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000} // ms, capped at 2 s
	for i, w := range want {
		if got := p.delay(i + 1); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := (Policy{BaseDelay: 3 * time.Second}).delay(1); got != maxDelay {
		t.Fatalf("delay(1) with a 3 s base = %v, want the %v cap", got, maxDelay)
	}
	if got := (Policy{}).withDefaults().delay(2); got != 100*time.Millisecond {
		t.Fatalf("default delay(2) = %v, want 100ms", got)
	}
}

func TestOnRetryObservesEachRetry(t *testing.T) {
	var seen []string
	p := Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		OnRetry: func(attempt int, d time.Duration, err error) {
			seen = append(seen, fmt.Sprintf("%d:%v", attempt, err))
		},
	}
	_ = p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
	if len(seen) != 2 || seen[0] != "1:x" || seen[1] != "2:x" {
		t.Fatalf("OnRetry saw %v", seen)
	}
}
