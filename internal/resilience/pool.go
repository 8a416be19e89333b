package resilience

import (
	"context"
	"errors"
	"io"
	"time"
)

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("resilience: pool closed")

const (
	// maxIdle bounds the connections a Pool parks for reuse.
	maxIdle = 2
	// idleTimeout reaps connections parked longer than this.
	idleTimeout = 90 * time.Second
)

// Pool keeps a bounded set of reusable connections to one endpoint: Get
// hands out a parked connection or dials a fresh one, Put parks it
// back (or closes it when unhealthy or surplus). Idle connections older
// than 90 s are reaped lazily on the next Get or Put.
type Pool struct {
	dial     func(ctx context.Context) (io.Closer, error)
	onChange func(idle, active int)
	now      func() time.Time // the clock for idle accounting

	mu     chan struct{} // 1-buffered mutex; lets lock acquisition stay simple
	idle   []idleConn    // LIFO: most recently used last
	active int
	closed bool
}

type idleConn struct {
	c      io.Closer
	parked time.Time
}

// NewPool returns a pool whose connections dial creates; dial must honor
// ctx. onChange, when non-nil, observes every idle/active count change — the
// hook the callers use to keep pool gauges current. It is called without
// internal locks held.
func NewPool(dial func(ctx context.Context) (io.Closer, error), onChange func(idle, active int)) *Pool {
	return &Pool{dial: dial, onChange: onChange, now: time.Now, mu: make(chan struct{}, 1)}
}

func (p *Pool) lock()   { p.mu <- struct{}{} }
func (p *Pool) unlock() { <-p.mu }

// notify reports the current counts to onChange (lock-free snapshot taken
// by the caller while still holding the lock).
func (p *Pool) notify(idle, active int) {
	if p.onChange != nil {
		p.onChange(idle, active)
	}
}

// reapLocked closes idle connections past their idle timeout, returning
// them for closing outside the lock.
func (p *Pool) reapLocked() []io.Closer {
	if len(p.idle) == 0 {
		return nil
	}
	cutoff := p.now().Add(-idleTimeout)
	var dead []io.Closer
	kept := p.idle[:0]
	for _, ic := range p.idle {
		if ic.parked.Before(cutoff) {
			dead = append(dead, ic.c)
		} else {
			kept = append(kept, ic)
		}
	}
	p.idle = kept
	return dead
}

// Get returns a connection: the most recently parked one if available,
// otherwise a freshly dialed one.
func (p *Pool) Get(ctx context.Context) (io.Closer, error) {
	p.lock()
	if p.closed {
		p.unlock()
		return nil, ErrPoolClosed
	}
	dead := p.reapLocked()
	var cand io.Closer
	if n := len(p.idle); n > 0 {
		cand = p.idle[n-1].c
		p.idle = p.idle[:n-1]
		p.active++
	}
	idle, active := len(p.idle), p.active
	p.unlock()
	for _, c := range dead {
		c.Close()
	}
	if cand != nil {
		p.notify(idle, active)
		return cand, nil
	}

	c, err := p.dial(ctx)
	if err != nil {
		return nil, err
	}
	p.lock()
	if p.closed {
		p.unlock()
		c.Close()
		return nil, ErrPoolClosed
	}
	p.active++
	idle, active = len(p.idle), p.active
	p.unlock()
	p.notify(idle, active)
	return c, nil
}

// Put returns a connection obtained from Get. Healthy connections are
// parked for reuse (newest first); unhealthy or surplus ones are closed.
func (p *Pool) Put(c io.Closer, healthy bool) {
	p.lock()
	p.active--
	park := healthy && !p.closed && len(p.idle) < maxIdle
	if park {
		p.idle = append(p.idle, idleConn{c: c, parked: p.now()})
	}
	dead := p.reapLocked()
	idle, active := len(p.idle), p.active
	p.unlock()
	if !park {
		c.Close()
	}
	for _, d := range dead {
		d.Close()
	}
	p.notify(idle, active)
}

// Close closes every parked connection and fails future Gets. Connections
// currently checked out are closed by their eventual Put.
func (p *Pool) Close() error {
	p.lock()
	if p.closed {
		p.unlock()
		return nil
	}
	p.closed = true
	idleConns := p.idle
	p.idle = nil
	active := p.active
	p.unlock()
	for _, ic := range idleConns {
		ic.c.Close()
	}
	p.notify(0, active)
	return nil
}
