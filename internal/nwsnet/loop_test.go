package nwsnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopRunsAtMostOnce takes the periodic loop through each order of
// start and halt on a fake clock: once halted a loop never runs again, a
// second start does not launch a second goroutine, and halt is safe before
// start and twice. Every row ends with two concurrent halts; a started loop
// runs exactly one pass per tick before its first halt and none after,
// because the first halt stops its ticker.
func TestLoopRunsAtMostOnce(t *testing.T) {
	const interval = time.Second
	rows := []struct {
		name   string
		ops    string // s = start, h = halt, in order
		starts string // what each start reports: t or f
		passes int64  // passes run by the first halt
	}{
		{"halt before start", "hs", "f", 0},
		{"start twice", "ss", "tf", 3},
		{"halt twice", "shh", "t", 3},
		{"start after halt", "shs", "tf", 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fc := newFakeClock()
			l := loop{clk: fc}
			var passes atomic.Int64
			starts, halted := "", int64(-1) // passes run by the first halt
			halt := func() {
				l.halt()
				if halted < 0 {
					halted = passes.Load()
				}
			}
			for _, op := range row.ops {
				if op == 'h' {
					halt()
					continue
				}
				if !l.start(interval, func() { passes.Add(1) }) {
					starts += "f"
					continue
				}
				starts += "t"
				fc.advance(3 * interval) // three ticks, each taken before the next
			}
			if starts != row.starts {
				t.Fatalf("starts reported %q, want %q", starts, row.starts)
			}

			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.halt()
				}()
			}
			wg.Wait()
			halt()
			if halted != row.passes {
				t.Fatalf("loop ran %d passes by its first halt, want %d", halted, row.passes)
			}
			if n := fc.armed(); n != 0 {
				t.Fatalf("%d tickers still armed after halt", n)
			}
			fc.advance(10 * interval)
			if got := passes.Load(); got != halted {
				t.Fatalf("loop ran %d more passes after its first halt", got-halted)
			}
		})
	}
}
