package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the position of a circuit breaker.
type BreakerState int

// The breaker states. Numeric values are stable and exported as gauge
// values (higher is worse), so reorder only with the dashboards.
const (
	BreakerClosed   BreakerState = 0 // normal operation; outcomes fill the window
	BreakerHalfOpen BreakerState = 1 // a bounded number of probes may test the endpoint
	BreakerOpen     BreakerState = 2 // calls are denied without touching the endpoint
)

// String returns the conventional lower-case state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// ErrBreakerOpen is wrapped into errors returned for calls a breaker denied
// without attempting. Callers distinguish it with errors.Is: a denial is not
// an observation of the endpoint, so health tracking should ignore it.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig configures a Breaker. The zero value selects the defaults
// noted on each field.
type BreakerConfig struct {
	// Window is the rolling count of recent call outcomes the failure rate
	// is computed over (0 selects 16).
	Window int
	// MinSamples is the minimum number of outcomes in the window before the
	// failure rate can trip the breaker (0 selects 5) — a single failed call
	// after an idle period should not open the circuit.
	MinSamples int
	// FailureRate opens the breaker when failures/window >= this fraction
	// (0 selects 0.5).
	FailureRate float64
	// OpenFor is how long the breaker stays open before moving to half-open
	// and admitting probes (0 selects 1 s). Negative means the breaker is
	// immediately eligible for half-open: an open circuit never delays a
	// sequential caller, it only bounds how many concurrent callers may
	// probe a sick endpoint at once — the right mode for a low-cadence
	// writer that must recover on its very next attempt.
	OpenFor time.Duration
	// Probes bounds the concurrent half-open probe calls (0 selects 1).
	Probes int
	// SuccessesToClose is how many probe successes close the breaker again
	// (0 selects 1).
	SuccessesToClose int
	// Now is the clock; nil selects time.Now. Tests inject a fake to step
	// through open→half-open transitions without sleeping.
	Now func() time.Time
	// OnTransition, when non-nil, observes every state change. It is called
	// with the breaker's lock held, so it must be fast and must not call
	// back into the breaker.
	OnTransition func(from, to BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.OpenFor == 0 {
		c.OpenFor = time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker over one endpoint: closed while the endpoint
// behaves, open (denying calls) after the recent failure rate trips it, and
// half-open — admitting a bounded number of probes — once OpenFor has
// elapsed. A probe success closes the circuit; a probe failure reopens it
// and restarts the clock.
//
// The breaker only decides and records; the caller maps its own outcomes
// onto Record (for the nwsnet client: transport errors and server "busy"
// sheds are failures, any other answered response is a success, because an
// answering server is alive even when it rejects the request).
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring of outcomes; true = failure
	head     int
	count    int
	failures int
	openedAt time.Time
	probing  int // probes admitted and not yet recorded (half-open)
	closeRun int // consecutive probe successes
}

// NewBreaker returns a closed breaker configured by cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// State reports the current position. An open breaker whose OpenFor has
// elapsed still reports open until the next Allow moves it to half-open.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves to state to, notifying OnTransition. Callers hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// resetWindow clears the outcome ring. Callers hold b.mu.
func (b *Breaker) resetWindow() {
	b.head, b.count, b.failures = 0, 0, 0
}

// Allow reports whether a call may proceed. Closed always allows. Open
// denies until OpenFor has elapsed, then becomes half-open. Half-open
// admits up to Probes concurrent calls; each admission is paired with the
// next Record, which releases the probe slot.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.OpenFor > 0 && b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = 0
		b.closeRun = 0
	}
	if b.probing >= b.cfg.Probes {
		return false
	}
	b.probing++
	return true
}

// Release returns an admission without an outcome — the caller abandoned the
// call, which says nothing about the endpoint — freeing its probe slot.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing > 0 {
		b.probing--
	}
}

// Record feeds one call outcome back. While closed it advances the rolling
// window and opens the circuit when the failure rate trips; while half-open
// (or for a straggler recorded after the circuit opened) a success counts
// toward closing and a failure reopens the circuit and restarts OpenFor.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if b.count == len(b.window) {
			if b.window[b.head] {
				b.failures--
			}
		} else {
			b.count++
		}
		b.window[b.head] = !success
		b.head = (b.head + 1) % len(b.window)
		if !success {
			b.failures++
		}
		if b.count >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.FailureRate*float64(b.count) {
			b.transition(BreakerOpen)
			b.openedAt = b.cfg.Now()
			b.resetWindow()
		}
	case BreakerHalfOpen, BreakerOpen:
		// In half-open this is a probe result; while open it is a straggler
		// from a call admitted before the circuit opened — either way a
		// success is evidence the endpoint recovered and a failure restarts
		// the open timer.
		if b.probing > 0 {
			b.probing--
		}
		if success {
			b.closeRun++
			if b.closeRun >= b.cfg.SuccessesToClose {
				b.transition(BreakerClosed)
				b.resetWindow()
				b.probing = 0
				b.closeRun = 0
			}
			return
		}
		b.closeRun = 0
		b.transition(BreakerOpen)
		b.openedAt = b.cfg.Now()
	}
}
