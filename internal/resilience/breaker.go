package resilience

import (
	"errors"
	"sync"
)

// BreakerState is the position of a circuit breaker.
type BreakerState int

// The breaker states. Numeric values are stable and exported as gauge
// values (higher is worse), so reorder only with the dashboards.
const (
	BreakerClosed   BreakerState = 0 // normal operation; outcomes fill the window
	BreakerHalfOpen BreakerState = 1 // one probe at a time may test the endpoint
	BreakerOpen     BreakerState = 2 // tripped; the next call becomes the probe
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

const (
	// breakerWindow is the rolling count of recent call outcomes the
	// failure rate is computed over.
	breakerWindow = 16
	// breakerMinSamples is how many outcomes the window must hold before
	// the failure rate can trip the breaker: a single failed call after an
	// idle period should not open the circuit.
	breakerMinSamples = 5
)

// Breaker is a circuit breaker over one endpoint that limits a failing
// endpoint to one probe at a time. It is closed while the endpoint behaves
// and opens once at least half of the last 16 outcomes (and at least 5)
// are failures. An open breaker never delays a sequential caller: the next
// Allow moves it to half-open and admits that call as the probe, while
// every concurrent call is denied until the probe's outcome is recorded.
// One success closes the circuit; a failure opens it again.
//
// The breaker only decides and records; the caller maps its own outcomes
// onto Record (for the nwsnet client: transport errors and server "busy"
// sheds are failures, any other answered response is a success, because an
// answering server is alive even when it rejects the request).
type Breaker struct {
	onTransition func(to BreakerState) // see NewBreaker

	mu       sync.Mutex
	state    BreakerState
	window   [breakerWindow]bool // ring of outcomes; true = failure
	head     int
	count    int
	failures int
	probing  bool // a half-open probe is admitted and not yet recorded
}

// NewBreaker returns a closed breaker. onTransition, when non-nil, observes
// every state change. It is called with the breaker's lock held, so it must
// be fast and must not call back into the breaker.
func NewBreaker(onTransition func(to BreakerState)) *Breaker {
	return &Breaker{onTransition: onTransition}
}

// State reports the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transition moves to state to, notifying onTransition. Callers hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// Allow reports whether a call may proceed. Closed always allows. Open
// becomes half-open. Half-open admits one call at a time; each admission is
// paired with the next Record or Release, which frees the probe slot.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		b.transition(BreakerHalfOpen)
		b.probing = false
	}
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// Release returns an admission without an outcome — the caller abandoned the
// call, which says nothing about the endpoint — freeing its probe slot.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Record feeds one call outcome back. While closed it advances the rolling
// window and opens the circuit when the failure rate trips; while half-open
// (or for a straggler recorded after the circuit opened) a success closes
// the circuit and a failure opens it.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerClosed {
		if b.count == breakerWindow {
			if b.window[b.head] {
				b.failures--
			}
		} else {
			b.count++
		}
		b.window[b.head] = !success
		b.head = (b.head + 1) % breakerWindow
		if !success {
			b.failures++
		}
		if b.count >= breakerMinSamples && 2*b.failures >= b.count {
			b.transition(BreakerOpen)
			b.head, b.count, b.failures = 0, 0, 0
		}
		return
	}
	// In half-open this is a probe result; while open it is a straggler
	// from a call admitted before the circuit opened — either way a success
	// is evidence the endpoint recovered.
	b.probing = false
	if success {
		b.transition(BreakerClosed)
		b.head, b.count, b.failures = 0, 0, 0
		return
	}
	b.transition(BreakerOpen)
}
