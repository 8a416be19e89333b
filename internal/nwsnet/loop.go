package nwsnet

import (
	"sync"
	"time"
)

// loop runs the package's periodic background work: the repairer, the
// cluster agent's lease renewals and the forecaster's refresher. A loop
// runs at most once in its life: start on a loop that is running or was
// halted does nothing, and halt is safe before start and when called twice.
// The zero value is ready to start.
type loop struct {
	mu     sync.Mutex
	halted bool
	stop   chan struct{} // closed by the first halt after start
	done   chan struct{} // closed when the goroutine has exited; nil before start
}

// start runs fn every interval on a new goroutine and reports whether it
// did; it reports false on a loop that is running or was halted.
func (l *loop) start(interval time.Duration, fn func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.halted || l.done != nil {
		return false
	}
	stop, done := make(chan struct{}), make(chan struct{})
	l.stop, l.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return true
}

// halt ends the loop for good and, if it was started, waits until fn has
// returned for the last time.
func (l *loop) halt() {
	l.mu.Lock()
	first := !l.halted
	l.halted = true
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if done == nil {
		return
	}
	if first {
		close(stop)
	}
	<-done
}
