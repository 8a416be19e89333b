package prochost

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"nwscpu/internal/sensors"
)

// jiffiesPerSecond is the kernel USER_HZ that /proc/stat counters use.
// Linux fixes the userspace-visible value at 100 regardless of CONFIG_HZ.
const jiffiesPerSecond = 100.0

// Host measures the local machine through its /proc files. It satisfies
// sensors.Host, so the paper's sensors run unchanged against live data.
type Host struct {
	procRoot string // normally "/proc"; tests point it at fixtures
	start    time.Time
}

// New returns a Host reading the real /proc filesystem. It fails if the
// needed files are unreadable, as on a system without Linux's /proc.
func New() (*Host, error) {
	return NewAt("/proc")
}

// NewAt returns a Host reading a /proc-format tree rooted at dir (for
// testing with fixture files).
func NewAt(dir string) (*Host, error) {
	h := &Host{procRoot: dir, start: time.Now()}
	if _, err := h.readLoad(); err != nil {
		return nil, err
	}
	if _, err := h.readStat(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Host) readLoad() (LoadInfo, error) {
	b, err := os.ReadFile(h.procRoot + "/loadavg")
	if err != nil {
		return LoadInfo{}, fmt.Errorf("prochost: %w", err)
	}
	return ParseLoadAvg(string(b))
}

func (h *Host) readStat() (StatTimes, error) {
	b, err := os.ReadFile(h.procRoot + "/stat")
	if err != nil {
		return StatTimes{}, fmt.Errorf("prochost: %w", err)
	}
	return ParseStat(string(b))
}

// Now implements sensors.Host: seconds since the Host was created.
func (h *Host) Now() float64 { return time.Since(h.start).Seconds() }

// LoadAvg implements sensors.Host.
func (h *Host) LoadAvg() float64 {
	li, err := h.readLoad()
	if err != nil {
		return 0
	}
	return li.Load1
}

// CPUTimes implements sensors.Host. Jiffies are converted to seconds;
// iowait/irq/etc. are folded into Idle and Sys respectively is left as
// reported — the vmstat sensor only needs consistent fractions.
func (h *Host) CPUTimes() sensors.CPUTimes {
	st, err := h.readStat()
	if err != nil {
		return sensors.CPUTimes{}
	}
	return sensors.CPUTimes{
		User:  st.User / jiffiesPerSecond,
		Nice:  st.Nice / jiffiesPerSecond,
		Sys:   st.Sys / jiffiesPerSecond,
		Idle:  (st.Idle + st.Other) / jiffiesPerSecond,
		Total: st.Total() / jiffiesPerSecond,
	}
}

// NumCPUs implements sensors.Host: the number of per-CPU "cpuN" lines in
// /proc/stat.
func (h *Host) NumCPUs() int {
	b, err := os.ReadFile(h.procRoot + "/stat")
	if err != nil {
		return 1
	}
	n := CountCPUs(string(b))
	if n < 1 {
		return 1
	}
	return n
}

// RunQueue implements sensors.Host: the running count from /proc/loadavg
// minus this process's own runnable thread.
func (h *Host) RunQueue() int {
	li, err := h.readLoad()
	if err != nil {
		return 0
	}
	rq := li.Running - 1
	if rq < 0 {
		rq = 0
	}
	return rq
}

// RunSpin implements sensors.Host: it pins a goroutine to an OS thread,
// spins for the requested wall time, and reports the thread's CPU time over
// the wall time — the NWS probe process. It reports 0 where the thread's
// CPU time cannot be read (see threadCPU).
func (h *Host) RunSpin(wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	done := make(chan float64, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := time.Now()
		before, ok := threadCPU()
		if !ok {
			done <- 0
			return
		}
		deadline := start.Add(time.Duration(wall * float64(time.Second)))
		sink := 0
		for time.Now().Before(deadline) {
			for i := 0; i < 1<<14; i++ {
				sink += i
			}
		}
		_ = sink
		elapsed := time.Since(start).Seconds()
		after, ok := threadCPU()
		if !ok || elapsed <= 0 {
			done <- 0
			return
		}
		frac := (after - before) / elapsed
		if frac > 1 {
			frac = 1
		}
		if frac < 0 {
			frac = 0
		}
		done <- frac
	}()
	return <-done
}

var _ sensors.Host = (*Host)(nil)
