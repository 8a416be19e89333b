package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// durable_restart: the memory that survives restarts. 512 series over a
// fresh directory; every pass stores half a ring's worth of host ticks
// through PersistentMemory.Handle from one goroutine (so byte and file counts
// repeat exactly), then closes the store and reopens it, replaying every log
// from zero. A log is compacted when it passes twice the ring's capacity,
// once per series every two passes; odd hosts start half a ring ahead of even
// ones, so every pass compacts exactly half of the logs. Flush policy is the
// program's own: a buffered write flushed per append, fsync only when a log
// is compacted. Reads come from the operating system's cache, so the times
// are the sandbox's, not a device's.
//
// Throughput is taken over the ingest phase; latency is the recovery time:
// NewPersistentMemory called -> first fetch answered.
const (
	durableSeries       = 512
	durableCapacity     = 1280
	durableTicksPerPass = durableCapacity / 2
)

type durableRestart struct {
	cfg     runConfig
	ticks   int // per pass
	step    int // host ticks stored per host since set-up
	dir     string
	set     *seriesSet
	pm      *Persistent
	handler *tracedHandler

	closeS, recoveryS []float64
	diskBytes         int64
	files             int
}

func newDurableRestart(cfg runConfig) *durableRestart {
	return &durableRestart{cfg: cfg, ticks: scaled(durableTicksPerPass, cfg.scale(), 8),
		dir: filepath.Join(cfg.outDir, cfg.workload+".data")}
}

func (w *durableRestart) unit() string   { return "point durably stored" }
func (w *durableRestart) pathLanes() int { return 1 }
func (w *durableRestart) counts() map[string]int {
	return map[string]int{"host_ticks": w.ticks * w.hosts(), "points": w.ticks * durableSeries, "reopens": 1}
}
func (w *durableRestart) hosts() int { return (durableSeries + 2) / 3 }

// lastTick is the last tick stored for series i: set-up fills every ring,
// and half a ring more on odd hosts.
func (w *durableRestart) lastTick(i int) int {
	return durableCapacity + (i/3%2)*durableTicksPerPass + w.step
}
func (w *durableRestart) spanBudget() int { return w.ticks*w.hosts() + 2 }

func (w *durableRestart) setup(st *setupTimes) error {
	w.set = newSeriesSet(w.cfg.seed, durableSeries, w.cfg.tracePool(st))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	var err error
	if w.pm, err = openPersistent(durableCapacity, w.dir); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.set.prefill(w.pm, w.lastTick); err != nil {
		return err
	}
	st.prefill = time.Since(t0)
	if w.cfg.trace {
		w.handler = &tracedHandler{inner: w.pm, store: spPersistStore,
			link: func(*Request) (int32, uint64) { return noParent, uint64(w.step) }}
	}
	return nil
}

func (w *durableRestart) pass(p int, tr *tracer, rec *recorder) (passResult, error) {
	var h Handler = w.pm
	if w.handler != nil {
		w.handler.inner = w.pm
		w.handler.tr.Store(tr)
		defer w.handler.tr.Store(nil)
		h = w.handler
	}
	var res passResult
	var batch [3]Request
	var pts [3][1][2]float64
	t0 := time.Now()
	for n := 0; n < w.ticks; n++ {
		w.step++
		for host := 0; host < w.hosts(); host++ {
			subs := w.set.hostTick(host, w.lastTick(3*host), &batch, &pts)
			resp := h.Handle(Request{Op: opBatch, Batch: subs})
			res.attempted++
			ok := resp.Error == "" && len(resp.Batch) == len(subs)
			for i := 0; ok && i < len(subs); i++ {
				ok = resp.Batch[i].Error == ""
			}
			if !ok {
				res.failed++
				continue
			}
			res.units += int64(len(subs))
		}
	}
	res.wall = time.Since(t0)

	span := tr.begin(spPersistClose, 0, noParent, uint64(w.step))
	t0 = time.Now()
	if err := w.pm.Close(); err != nil {
		return res, fmt.Errorf("close: %w", err)
	}
	w.closeS = append(w.closeS, time.Since(t0).Seconds())
	tr.end(span, 0)
	var err error
	if w.diskBytes, w.files, err = dirUsage(w.dir); err != nil {
		return res, err
	}

	span = tr.begin(spPersistOpen, 0, noParent, uint64(w.step))
	t0 = time.Now()
	if w.pm, err = openPersistent(durableCapacity, w.dir); err != nil {
		return res, fmt.Errorf("reopen: %w", err)
	}
	resp := w.pm.Handle(Request{Op: opFetch, Series: w.set.keys[0], Max: 1})
	recovery := time.Since(t0)
	tr.end(span, durableSeries*durableCapacity)
	res.attempted++
	if resp.Error != "" || len(resp.Points) != 1 || resp.Points[0][0] != tickTime(w.lastTick(0)) {
		res.failed++
	}
	w.recoveryS = append(w.recoveryS, recovery.Seconds())
	rec.add(0, recovery)
	return res, nil
}

func (w *durableRestart) retained() int64 { return w.set.retained(w.pm.Memory) }

// verify runs after the last reopen: what was replayed from the logs must be
// exactly what the schedule stored.
func (w *durableRestart) verify(int) error {
	return w.set.checkDigests("durable_restart after reopen", w.pm.Memory, w.lastTick, durableCapacity)
}

func (w *durableRestart) scheduleFNV(passes int) uint64 {
	h := fnvOffset
	replay := durableRestart{}
	for replay.step = 1; replay.step <= passes*w.ticks; replay.step++ {
		for i := 0; i < durableSeries; i++ {
			tick := replay.lastTick(i)
			h.point(tickTime(tick), w.set.val(i, tick))
		}
	}
	return uint64(h)
}

func (w *durableRestart) layers(sum traceSummary, tracedWall time.Duration, m map[string]float64) error {
	handle, open := sum.get(spPersistStore), sum.get(spPersistOpen)
	m["persist.handle.ns_per_point"] = float64(handle.TotalNs) / float64(handle.Units)
	m["persist.handle.p99_us"] = handle.P99Us
	m["persist.open.ns_per_point"] = float64(open.TotalNs) / float64(open.Units)
	m["persist.recovery_s"] = median(w.recoveryS)
	m["persist.close_s"] = median(w.closeS)
	m["persist.files"] = float64(w.files)
	m["persist.disk_bytes_per_point"] = float64(w.diskBytes) / float64(durableSeries*durableCapacity)

	// The same host ticks into a plain Memory in the same state: what is
	// left of persist.handle is the log.
	plain := newMemory(durableCapacity)
	if err := w.set.prefill(plain, upTo(durableCapacity)); err != nil {
		return err
	}
	_, inHandle, points, err := replayDirect(w.set, plain, durableCapacity+1, w.ticks, 1)
	if err != nil {
		return err
	}
	m["memory.handle.store_ns_per_point"] = float64(inHandle) / float64(points)
	m["persist.log_overhead_ns_per_point"] = m["persist.handle.ns_per_point"] - m["memory.handle.store_ns_per_point"]
	return nil
}

func (w *durableRestart) close() error {
	if w.pm == nil {
		return nil
	}
	err := w.pm.Close()
	w.pm = nil
	return err
}
