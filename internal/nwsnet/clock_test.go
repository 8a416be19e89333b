package nwsnet

import (
	"sync"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
)

// fakeClock is a clock that moves only when a test advances it. Advance
// hands every tick and timer that falls due to its receiver before it goes
// on, so a loop ticked twice has finished its first pass, and a timer that
// fired has been seen.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	waits []*fakeWait // armed timers and tickers, in the order they were armed
}

type fakeWait struct {
	due    time.Time
	period time.Duration // 0 for a timer
	c      chan time.Time
	done   chan struct{} // closed by stop
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) timer(d time.Duration) (<-chan time.Time, func()) { return c.arm(d, 0) }

func (c *fakeClock) ticker(d time.Duration) (<-chan time.Time, func()) { return c.arm(d, d) }

func (c *fakeClock) arm(d, period time.Duration) (<-chan time.Time, func()) {
	w := &fakeWait{period: period, c: make(chan time.Time), done: make(chan struct{})}
	c.mu.Lock()
	w.due = c.t.Add(d)
	c.waits = append(c.waits, w)
	c.mu.Unlock()
	var once sync.Once
	return w.c, func() {
		once.Do(func() {
			c.mu.Lock()
			c.drop(w)
			c.mu.Unlock()
			close(w.done)
		})
	}
}

// drop disarms w; the caller holds mu.
func (c *fakeClock) drop(w *fakeWait) {
	for i, x := range c.waits {
		if x == w {
			c.waits = append(c.waits[:i], c.waits[i+1:]...)
			return
		}
	}
}

// armed reports how many timers and tickers are waiting on the clock.
func (c *fakeClock) armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waits)
}

// advance moves the clock d forward. Each timer and tick due on the way is
// delivered at its own instant, earliest first, and advance waits until
// its receiver takes it or stops it.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	end := c.t.Add(d)
	for {
		var next *fakeWait
		for _, w := range c.waits {
			if !w.due.After(end) && (next == nil || w.due.Before(next.due)) {
				next = w
			}
		}
		if next == nil {
			break
		}
		c.t = next.due
		if next.period > 0 {
			next.due = next.due.Add(next.period)
		} else {
			c.drop(next)
		}
		at := c.t
		c.mu.Unlock()
		select {
		case next.c <- at:
		case <-next.done:
		}
		c.mu.Lock()
	}
	c.t = end
	c.mu.Unlock()
}

// fakeNameServer is a registry on a fake clock.
func fakeNameServer(ttl time.Duration, cfg cluster.Config) (*NameServer, *fakeClock) {
	fc := newFakeClock()
	ns := NewNameServer(ttl, cfg)
	ns.clk, ns.lastSweep = fc, fc.now()
	return ns, fc
}

// waitFor polls cond until it holds, failing the test after timeout. It is
// for what no clock drives — socket I/O, kernel deadlines, goroutines
// winding down — and must be called from the test's goroutine.
func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within %v", what, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
