package resilience

import (
	"fmt"
	"strings"
	"testing"
)

func TestBreakerOpensAtFailureRate(t *testing.T) {
	b := NewBreaker(nil)

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

	// The window now holds 16 successes: 7 failures are 7/16 and leave it
	// closed, the 8th is half the window and trips it.
	for i := 0; i < 7; i++ {
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state at 7/16 failures = %v, want closed", got)
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state at 8/16 failures = %v, want open", got)
	}
}

// tripped returns a breaker opened by five failures, recording its
// transitions into seen.
func tripped(t *testing.T, seen *[]BreakerState) *Breaker {
	t.Helper()
	b := NewBreaker(func(to BreakerState) { *seen = append(*seen, to) })
	for i := 0; i < 5; i++ {
		b.Record(false)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 5 failures = %v, want open", got)
	}
	return b
}

func TestBreakerHalfOpenProbesAndCloses(t *testing.T) {
	var transitions []BreakerState
	b := tripped(t, &transitions)
	if !b.Allow() {
		t.Fatal("open breaker denied the first probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", got)
	}
	// The probe slot is taken: a concurrent call is denied.
	if b.Allow() {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}; fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b := tripped(t, new([]BreakerState))
	if !b.Allow() {
		t.Fatal("probe denied")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Reopened, the next call is the next probe.
	if !b.Allow() {
		t.Fatal("probe denied after a failed probe")
	}
}

// TestBreakerImmediateHalfOpen: a sequential caller is never delayed (every
// call while open is admitted as the probe), but a concurrent caller is
// denied — recovery happens on the sensor daemon's very next tick.
func TestBreakerImmediateHalfOpen(t *testing.T) {
	b := tripped(t, new([]BreakerState))
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("sequential caller denied on call %d", i)
		}
		if b.Allow() {
			t.Fatal("second concurrent probe admitted")
		}
		b.Record(false)
	}
	if !b.Allow() {
		t.Fatal("sequential caller denied")
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
	b := tripped(t, new([]BreakerState))
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after straggler success = %v, want closed", got)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	// Old failures fall out of the window: a burst followed by steady
	// successes must not leave the breaker on a hair trigger.
	b := NewBreaker(nil)
	b.Record(false)
	for i := 0; i < 16; i++ {
		b.Record(true)
	}
	// The window holds 16 successes; 7 failures are 7/16 < 1/2. Had the
	// first failure stayed, the 7th would make it 8/16 and trip.
	for i := 0; i < 7; i++ {
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed (stale failure must have slid out)", got)
	}
}

// TestBreakerReleaseFreesProbe: a released half-open probe leaves the state
// alone and frees its slot for the next caller.
func TestBreakerReleaseFreesProbe(t *testing.T) {
	b := tripped(t, new([]BreakerState))
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

// TestBreakerReplaysProbeLimiterScripts replays scripts of Allow (A),
// Record(true) (S), Record(false) (F) and Release (R) calls; a count after
// the letter repeats it. Each step's want is the Allow answer (+ admitted,
// - denied) and the state after it (c, h, o). The wants were recorded from
// the breaker as it was before its settings became constants, configured
// as every daemon ran it (16 outcomes, 5 samples, half the window, one
// probe, one success, and OpenFor < 0: no open timer), so fixing the
// settings changed no daemon's behaviour.
func TestBreakerReplaysProbeLimiterScripts(t *testing.T) {
	for _, tc := range []struct{ ops, want, transitions string }{
		{"A A F4 A F", "+c +c c +c o", "open"},
		{"F5 A A A F A R A A S A", "o +h -h -h o +h h +h -h c +c", "open,half-open,open,half-open,closed"},
		{"S10 F5 S16 F7 F", "c c c c o", "open"},
		{"F F S F F F S F", "c c c c o o c c", "open,closed"},
		{"F5 S A S", "o c +c c", "open,closed"},
		{"F5 A F A S", "o +h o +h c", "open,half-open,open,half-open,closed"},
		{"F5 R A A R A S R F5", "o o +h -h h +h c c o", "open,half-open,closed,open"},
		{"F5 A F F A A S S F4 F", "o +h o o +h -h c c o o", "open,half-open,open,half-open,closed,open"},
	} {
		var transitions []string
		b := NewBreaker(func(to BreakerState) { transitions = append(transitions, to.String()) })
		var got []string
		for _, op := range strings.Fields(tc.ops) {
			n := 1
			if len(op) > 1 {
				fmt.Sscan(op[1:], &n)
			}
			var step string
			for i := 0; i < n; i++ {
				step = ""
				switch op[0] {
				case 'A':
					step = "-"
					if b.Allow() {
						step = "+"
					}
				case 'S':
					b.Record(true)
				case 'F':
					b.Record(false)
				case 'R':
					b.Release()
				}
			}
			got = append(got, step+b.State().String()[:1])
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s: steps %q, want %q", tc.ops, g, tc.want)
		}
		if g := strings.Join(transitions, ","); g != tc.transitions {
			t.Errorf("%s: transitions %q, want %q", tc.ops, g, tc.transitions)
		}
	}
}
