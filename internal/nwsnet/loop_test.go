package nwsnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopRunsAtMostOnce takes the periodic loop through each order of
// start and halt: once halted a loop never runs again, a second start does
// not launch a second goroutine, and halt is safe before start and twice.
// Every row ends with two concurrent halts; no pass may run after the
// row's first halt.
func TestLoopRunsAtMostOnce(t *testing.T) {
	rows := []struct {
		name   string
		ops    string // s = start, h = halt, in order
		starts string // what each start reports: t or f
		runs   bool   // whether any pass runs
	}{
		{"halt before start", "hs", "f", false},
		{"start twice", "ss", "tf", true},
		{"halt twice", "shh", "t", true},
		{"start after halt", "shs", "tf", true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var l loop
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
				if !l.start(time.Millisecond, func() { passes.Add(1) }) {
					starts += "f"
					continue
				}
				starts += "t"
				for deadline := time.Now().Add(5 * time.Second); passes.Load() < 3; {
					if time.Now().After(deadline) {
						t.Fatalf("started loop ran %d passes in 5 s", passes.Load())
					}
					time.Sleep(time.Millisecond)
				}
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
			if (halted > 0) != row.runs {
				t.Fatalf("loop ran %d passes, want any: %v", halted, row.runs)
			}
			time.Sleep(10 * time.Millisecond) // ten intervals
			if got := passes.Load(); got != halted {
				t.Fatalf("loop ran %d more passes after its first halt", got-halted)
			}
		})
	}
}
