package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually stepped clock for breaker timing tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerOpensAtFailureRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Window: 8, MinSamples: 4, FailureRate: 0.5, OpenFor: time.Second, Now: clk.Now})

	// Successes alone never trip it.
	for i := 0; i < 20; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.Record(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successes = %v, want closed", got)
	}

	// Fewer than MinSamples failures after a reset-worth of successes do not
	// trip it either (window still majority-success), but sustained failures do.
	b.Record(false)
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state at 3/8 failures = %v, want closed", got)
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state at 4/8 failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before OpenFor elapsed")
	}
}

func TestBreakerHalfOpenProbesAndCloses(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var transitions []BreakerState
	b := NewBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second, Probes: 1,
		Now:          clk.Now,
		OnTransition: func(_, to BreakerState) { transitions = append(transitions, to) },
	})
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	clk.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed before OpenFor elapsed")
	}
	clk.Advance(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open denied the first probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", got)
	}
	// The probe budget is taken: a concurrent call is denied.
	if b.Allow() {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Second, Now: clk.Now})
	b.Record(false)
	b.Record(false)
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe denied")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The open timer restarted: still denied until another full OpenFor.
	clk.Advance(900 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed before the restarted OpenFor elapsed")
	}
	clk.Advance(200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe denied after restarted OpenFor elapsed")
	}
}

// TestBreakerImmediateHalfOpen covers OpenFor < 0: a sequential caller is
// never delayed (every call while "open" is admitted as the probe), but
// concurrent callers beyond the probe budget are denied — the mode the
// sensor daemon uses so recovery happens on the very next tick.
func TestBreakerImmediateHalfOpen(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: -1, Probes: 1})
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if !b.Allow() {
		t.Fatal("sequential caller denied in immediate-half-open mode")
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied")
	}
}

func TestBreakerSuccessWhileOpenClosesIt(t *testing.T) {
	// A call admitted just before the circuit opened may come back with a
	// success: that is live evidence the endpoint works, so it closes the
	// circuit instead of being dropped on the floor.
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, OpenFor: time.Hour})
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after straggler success = %v, want closed", got)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	// Old failures fall out of the window: a burst followed by steady
	// successes must not leave the breaker on a hair trigger.
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 4, FailureRate: 0.5, OpenFor: time.Hour})
	b.Record(false)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	// Window now holds 4 successes; one failure is 1/4 < 0.5.
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (stale failure must have slid out)", got)
	}
}

// TestBreakerReleaseFreesProbe: a released half-open probe leaves the state
// alone and frees its slot for the next caller.
func TestBreakerReleaseFreesProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Window: 2, MinSamples: 1, OpenFor: time.Second, Probes: 1, Now: clk.Now})
	b.Record(false)
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("half-open denied the first probe")
	}
	b.Release()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after release = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("released probe slot not freed")
	}
}
