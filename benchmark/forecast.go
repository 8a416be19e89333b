package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// forecast_serve and forecast_push share one in-process stack, wired as
// internal/grid wires it: Memory -> LocalBackend -> ForecasterService, warmed
// in set-up, cache serving on. Every round stores one new point per series and
// runs RefreshNow, which updates every engine.
//
// forecast_serve then answers 4 forecast polls per series from two
// goroutines: the forecaster bank dominates, no socket is touched.
//
// forecast_push instead serves the forecaster on loopback to two pipelined
// connections, each subscribed to every series, and the round ends when both
// have received all their pushes: the push plane outweighs the engines.
const (
	serveSeries        = 512
	serveRoundsPerPass = 215
	servePollsPerRound = 4 // per series

	pushSeries        = 1024
	pushRoundsPerPass = 60
	pushConns         = 2
	pushWait          = 5 * time.Second

	forecastCapacity = 2048
	// warmPoints is the history every engine consumes in set-up, summed over
	// the series, so both variants warm for the same time.
	warmPoints = 128 * 1024
	// offlineSample is how many series verification replays through a bare
	// engine; the served forecast must equal the offline one bit for bit.
	offlineSample = 32
	// engineReplayRounds sizes the bare-engine replay of the traced run.
	engineReplayRounds = 64
)

// subState is what one subscription has received.
type subState struct {
	pushes int
	last   ForecastResult
}

type forecastRounds struct {
	cfg     runConfig
	push    bool
	series  int
	rounds  int // per pass
	history int // ticks stored and warmed in set-up
	tick    int // last tick stored

	set     *seriesSet
	mem     *Memory
	handler *tracedHandler
	local   *LocalBackend
	fc      *Forecaster
	stores  []BatchStore
	points  [][1][2]float64
	lane    laneState
	tr      atomic.Pointer[tracer]

	// forecast_serve: the last answer polled per series.
	served []ForecastResult

	// forecast_push
	srv      *Server
	conns    []*MuxConn
	subs     [][]subState // by connection, by series
	received atomic.Int64
	target   atomic.Int64
	bad      atomic.Int64 // pushes that were terminal, malformed or not newer
	closing  atomic.Bool
	done     chan struct{}
	missing  int64
}

func newForecastRounds(cfg runConfig, push bool) *forecastRounds {
	w := &forecastRounds{cfg: cfg, push: push, series: serveSeries, rounds: scaled(serveRoundsPerPass, cfg.scale(), 3)}
	if push {
		w.series, w.rounds = pushSeries, scaled(pushRoundsPerPass, cfg.scale(), 3)
	}
	w.history = warmPoints / w.series
	// done is signalled once per round, by the push that completes it.
	w.done = make(chan struct{}, 1)
	return w
}

func (w *forecastRounds) unit() string {
	if w.push {
		return "push delivered"
	}
	return "forecast poll answered"
}
func (w *forecastRounds) pathLanes() int { return 1 }
func (w *forecastRounds) counts() map[string]int {
	c := map[string]int{"rounds": w.rounds, "points_stored": w.rounds * w.series}
	if w.push {
		c["pushes"] = w.rounds * w.series * pushConns
	} else {
		c["polls"] = w.rounds * w.series * servePollsPerRound
	}
	return c
}
func (w *forecastRounds) spanBudget() int { return 8 * w.rounds }

func (w *forecastRounds) setup(st *setupTimes) error {
	w.set = newSeriesSet(w.cfg.seed, w.series, w.cfg.tracePool(st))
	w.mem = newMemory(forecastCapacity)
	t0 := time.Now()
	if err := w.set.prefill(w.mem, upTo(w.history)); err != nil {
		return err
	}
	st.prefill = time.Since(t0)
	w.tick = w.history

	var h Handler = w.mem
	var wrap func(FetchBackend) FetchBackend
	if w.cfg.trace {
		w.handler = &tracedHandler{inner: w.mem, store: spMemoryStore,
			link: func(*Request) (int32, uint64) { return w.lane.call.Load(), w.lane.trace.Load() }}
		h = w.handler
		wrap = func(fb FetchBackend) FetchBackend {
			return &tracedBackend{FetchBackend: fb, tr: &w.tr, lane: &w.lane}
		}
	}
	w.fc, w.local = newForecaster(h, wrap)
	t0 = time.Now()
	n, err := w.fc.Warm(context.Background(), w.set.keys)
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	if n != w.series*w.history {
		return fmt.Errorf("warm consumed %d points, want %d", n, w.series*w.history)
	}
	st.warm = time.Since(t0)

	w.stores = make([]BatchStore, w.series)
	w.points = make([][1][2]float64, w.series)
	w.served = make([]ForecastResult, w.series)
	if !w.push {
		return nil
	}
	var addr string
	if w.srv, addr, err = startServer(w.fc); err != nil {
		return err
	}
	for c := 0; c < pushConns; c++ {
		conn, err := dialMux(addr)
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
		w.subs = append(w.subs, make([]subState, w.series))
		calls := make([]*MuxCall, w.series)
		for i, key := range w.set.keys {
			calls[i] = conn.Subscribe(key, w.onPush(c, i))
		}
		for i, call := range calls {
			ack, err := call.Wait()
			if err != nil || ack.Error != "" || ack.Forecast == nil {
				return fmt.Errorf("subscribe %s: %v %s", w.set.keys[i], err, ack.Error)
			}
			w.subs[c][i].last = *ack.Forecast
		}
	}
	return nil
}

// onPush is the handler of connection c's subscription to series i; it runs
// on the connection's reader goroutine.
func (w *forecastRounds) onPush(c, i int) func(Response, error) {
	return func(resp Response, err error) {
		if w.closing.Load() {
			return
		}
		st := &w.subs[c][i]
		if err != nil || resp.Forecast == nil || resp.Forecast.N <= st.last.N {
			w.bad.Add(1)
		} else {
			st.last = *resp.Forecast
		}
		st.pushes++
		if w.received.Add(1) == w.target.Load() {
			w.done <- struct{}{}
		}
	}
}

// tracedBackend records the refresher's batch fetch under the open refresh.
type tracedBackend struct {
	FetchBackend
	tr   *atomic.Pointer[tracer]
	lane *laneState
}

func (b *tracedBackend) FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error) {
	tr := b.tr.Load()
	i := tr.begin(spFetchBatch, b.lane.lane, b.lane.root.Load(), b.lane.trace.Load())
	if tr != nil {
		b.lane.call.Store(i)
	}
	res, err := b.FetchBackend.FetchBatch(ctx, fetches)
	tr.end(i, len(fetches))
	return res, err
}

func (w *forecastRounds) pass(p int, tr *tracer, rec *recorder) (passResult, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	if w.handler != nil {
		w.handler.tr.Store(tr)
		defer w.handler.tr.Store(nil)
	}
	var res passResult
	var timer *time.Timer
	if w.push {
		timer = time.NewTimer(pushWait)
		defer timer.Stop()
	}
	t0 := time.Now()
	for r := 0; r < w.rounds; r++ {
		w.tick++
		trace := uint64(w.tick)
		w.lane.trace.Store(trace)
		for i := range w.stores {
			w.points[i][0] = [2]float64{tickTime(w.tick), w.set.val(i, w.tick)}
			w.stores[i] = BatchStore{Series: w.set.keys[i], Points: w.points[i][:]}
		}
		span := tr.begin(spTickStore, 0, noParent, trace)
		w.lane.root.Store(span)
		w.lane.call.Store(span)
		errs, err := w.local.StoreBatch(context.Background(), w.stores)
		tr.end(span, w.series)
		if err != nil {
			return res, fmt.Errorf("round tick %d: %w", w.tick, err)
		}
		for _, e := range errs {
			if e != nil {
				return res, fmt.Errorf("round tick %d: %w", w.tick, e)
			}
		}

		stored := time.Now()
		if w.push {
			w.target.Add(int64(w.series * pushConns))
		}
		span = tr.begin(spRefresh, 0, noParent, trace)
		w.lane.root.Store(span)
		w.fc.RefreshNow()
		tr.end(span, w.series)
		if !w.push {
			rec.add(0, time.Since(stored))
			w.pollRound(tr, trace, &res)
			continue
		}

		span = tr.begin(spPushDeliver, 0, noParent, trace)
		timer.Reset(pushWait)
		select {
		case <-w.done:
		case <-timer.C:
			// Pushes went missing: count them and start the next round level.
			lost := w.target.Load() - w.received.Load()
			w.missing += lost
			res.failed += lost
			w.received.Add(lost)
		}
		tr.end(span, w.series*pushConns)
		rec.add(0, time.Since(stored))
		res.attempted += int64(w.series * pushConns)
	}
	res.wall = time.Since(t0)
	if w.push {
		bad := w.bad.Swap(0)
		res.failed += bad
		res.units = res.attempted - res.failed
	}
	return res, nil
}

// pollRound answers the round's forecast polls from two goroutines (one when
// there is a single CPU), each taking every other series. An answer is right
// when it carries a forecast made from every point stored so far.
func (w *forecastRounds) pollRound(tr *tracer, trace uint64, res *passResult) {
	pollers := clientCount()
	failed := make([]int64, pollers)
	poll := func(g int) {
		span := tr.begin(spPoll, uint8(g), noParent, trace)
		n := 0
		for k := 0; k < servePollsPerRound; k++ {
			for i := g; i < w.series; i += pollers {
				resp := w.fc.Handle(Request{Op: opForecast, Series: w.set.keys[i]})
				if resp.Error != "" || resp.Forecast == nil || resp.Forecast.N != w.tick {
					failed[g]++
				} else {
					w.served[i] = *resp.Forecast
				}
				n++
			}
		}
		tr.end(span, n)
	}
	var wg sync.WaitGroup
	for g := 1; g < pollers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			poll(g)
		}(g)
	}
	poll(0)
	wg.Wait()
	polls := int64(w.series * servePollsPerRound)
	res.attempted += polls
	res.units += polls
	for _, f := range failed {
		res.failed += f
		res.units -= f
	}
}

func (w *forecastRounds) retained() int64 { return w.set.retained(w.mem) }

// offline replays series i through a bare engine up to the last tick.
func (w *forecastRounds) offline(i int) (ForecastResult, bool) {
	e := newEngine()
	for k := 1; k <= w.tick; k++ {
		e.update(w.set.val(i, k))
	}
	return e.forecast()
}

func (w *forecastRounds) verify(int) error {
	if err := w.set.checkDigests(w.cfg.workload, w.mem, upTo(w.tick), forecastCapacity); err != nil {
		return err
	}
	r := rng{s: mix(w.cfg.seed, 300, 0)}
	for n := 0; n < offlineSample; n++ {
		i := r.intn(w.series)
		want, ok := w.offline(i)
		if !ok {
			return fmt.Errorf("offline engine has no forecast for %s", w.set.keys[i])
		}
		got := w.served[i]
		if w.push {
			got = w.subs[n%pushConns][i].last
		}
		if got != want {
			return fmt.Errorf("series %s: served %+v, offline %+v", w.set.keys[i], got, want)
		}
	}
	if !w.push {
		return nil
	}
	if w.missing > 0 {
		return fmt.Errorf("%d pushes never arrived", w.missing)
	}
	// Every subscription's final push must equal a direct forecast query.
	for c, conn := range w.conns {
		calls := make([]*MuxCall, w.series)
		for i, key := range w.set.keys {
			calls[i] = conn.Go(Request{Op: opForecast, Series: key})
		}
		for i, call := range calls {
			resp, err := call.Wait()
			if err != nil || resp.Error != "" || resp.Forecast == nil {
				return fmt.Errorf("forecast %s: %v %s", w.set.keys[i], err, resp.Error)
			}
			st := w.subs[c][i]
			if st.last != *resp.Forecast || st.pushes != w.tick-w.history {
				return fmt.Errorf("conn %d series %s: %d pushes ending in %+v, direct forecast %+v after %d rounds",
					c, w.set.keys[i], st.pushes, st.last, *resp.Forecast, w.tick-w.history)
			}
		}
	}
	return nil
}

func (w *forecastRounds) scheduleFNV(passes int) uint64 {
	h := fnvOffset
	for tick := w.history + 1; tick <= w.history+passes*w.rounds; tick++ {
		for i := 0; i < w.series; i++ {
			h.point(tickTime(tick), w.set.val(i, tick))
		}
	}
	return uint64(h)
}

func (w *forecastRounds) layers(sum traceSummary, tracedWall time.Duration, m map[string]float64) error {
	refresh, fetch, poll, deliver := sum.get(spRefresh), sum.get(spFetchBatch), sum.get(spPoll), sum.get(spPushDeliver)
	m["forecaster.refresh.self_ns_per_series"] = float64(refresh.SelfNs) / float64(refresh.Units)
	m["forecaster.refresh.p99_us"] = refresh.P99Us
	m["forecaster.fetch_batch.ns_per_series"] = float64(fetch.TotalNs) / float64(fetch.Units)
	if poll.Units > 0 {
		m["forecaster.poll.ns_per_op"] = float64(poll.TotalNs) / float64(poll.Units)
	}
	hits, misses, _ := w.fc.CacheStats()
	m["forecaster.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	memoryLayers(sum, m)

	// The same points through bare engines: what the bank alone costs.
	engines := make([]engine, w.series)
	for i := range engines {
		engines[i] = newEngine()
		for k := 1; k <= w.history; k++ {
			engines[i].update(w.set.val(i, k))
		}
	}
	rounds := min(engineReplayRounds, w.rounds)
	var update, forecast time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 1; r <= rounds; r++ {
		t0 := time.Now()
		for i := range engines {
			engines[i].update(w.set.val(i, w.history+r))
		}
		t1 := time.Now()
		for i := range engines {
			if _, ok := engines[i].forecast(); !ok {
				return fmt.Errorf("engine replay: no forecast for %s", w.set.keys[i])
			}
		}
		update += t1.Sub(t0)
		forecast += time.Since(t1)
	}
	runtime.ReadMemStats(&ms1)
	points := float64(rounds * w.series)
	perPoint := float64(update) / points
	m["engine.update.ns_per_point"] = perPoint
	m["engine.forecast.ns_per_op"] = float64(forecast) / points
	m["engine.update.allocs_per_point"] = float64(ms1.Mallocs-ms0.Mallocs) / points
	m["engine.share_of_pass"] = perPoint * float64(refresh.Units) / float64(tracedWall)

	if w.push {
		m["push.deliver.p50_us"] = deliver.P50Us
		m["push.deliver.p99_us"] = deliver.P99Us
		// What is left of refresh + delivery once the engines' share is
		// taken out, per push: encode, deadlines, flush, read, dispatch.
		m["push.ns_per_push"] = (float64(refresh.SelfNs+deliver.TotalNs) - perPoint*float64(refresh.Units)) / float64(deliver.Units)
		m["push.dropped"] = float64(w.missing)
	}
	return nil
}

func (w *forecastRounds) close() error {
	w.closing.Store(true)
	for _, c := range w.conns {
		c.Close()
	}
	w.conns = nil
	if w.srv != nil {
		err := w.srv.Close()
		w.srv = nil
		return err
	}
	return nil
}
