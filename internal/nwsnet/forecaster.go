package nwsnet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nwscpu/internal/forecast"
	"nwscpu/internal/metrics"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// FetchBackend is the read-plane contract a ForecasterService pulls
// history through: satisfied by a ReplicaGroup on either placement (fixed
// replicas or ring-routed cluster owners) and by the in-process
// LocalBackend, so the incremental-engine logic is identical across
// deployments. Every read is one batch fetch (see pull).
type FetchBackend interface {
	FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error)
	Series(ctx context.Context) ([]string, error)
}

// ForecasterService answers forecast queries: for each requested series it
// keeps an incremental forecasting engine fed from the memory server, so
// repeated queries only transfer the new points. With a replicated memory
// group, fetches fail over to the next healthy replica, so one dead memory
// server costs a query at most one extra attempt.
type ForecasterService struct {
	group   FetchBackend
	timeout time.Duration

	mu      sync.Mutex
	engines map[string]*engineState
	// order holds the same states in the order they were tracked (engine).
	// Engines are never deleted, so the slice only grows: the refresh pass
	// walks it, and its fetch envelopes and pushes come in the same order
	// every tick.
	order []*engineState

	// Subscription hub (docs/PROTOCOL.md §8): which push sinks watch which
	// series. Guarded by hubMu, which is never held across a PushBatch — the
	// serve loop holds a sink's write lock while registering, so pushing
	// under hubMu would invert that order and deadlock.
	hubMu  sync.Mutex
	subs   map[string]map[PushSink]uint64 // series → sink → subscription request ID
	bySink map[PushSink]map[string]struct{}
	// unsent holds, per sink, the frames of its last batch dropped on a busy
	// connection, until the next refresh pass sends them again.
	unsent map[PushSink][]PushItem

	// refreshing is set while the refresher runs, or while a harness says it
	// drives RefreshNow (SetCacheServing): only then is the cache served.
	refreshing atomic.Bool
	refresher  loop

	// selfID is this forecaster's cluster member ID, when it serves a slice
	// of a partitioned deployment; AdoptView uses it to hand off
	// subscriptions for series the forecaster ring no longer assigns here.
	selfID atomic.Pointer[string]

	cacheHits, cacheMisses, cacheInvals atomic.Uint64 // mirrors of the global counters, for in-process harnesses
}

type engineState struct {
	key   string
	eng   *forecast.Engine
	lastT float64
	// cached is the forecast at the current frontier, nil before the first
	// point; replaced, never modified. It is served to polls as a cache hit
	// only while the refresher runs: only the refresher observes stores made
	// by other clients, and it bounds staleness to one tick.
	cached *ForecastResult
	// selected counts the forecasts served by method, the bank member the
	// engine last forwarded. It is resolved when that member changes, so a
	// cache hit resolves no label.
	method   string
	selected *metrics.Counter
}

// NewForecasterService returns a forecaster pulling from a replicated
// memory group, reads failing over in replica-health order. A single memory
// server is the group []string{addr}. timeout bounds each memory call
// attempt (0 selects 5 s).
func NewForecasterService(memAddrs []string, timeout time.Duration) *ForecasterService {
	return NewForecasterServiceBackend(NewReplicaGroup(forecasterClient(timeout), memAddrs, 0), timeout)
}

// forecasterClient is the protocol client a forecaster pulls history with.
func forecasterClient(timeout time.Duration) *Client {
	return NewClientOptions(ClientOptions{
		Timeout: timeout,
		// One in-call retry per replica; replica failover is the main
		// recovery path for reads.
		Retry: resilience.Policy{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond},
		// The breaker (see NewSensorDaemon) never delays a sequential
		// caller, but lets one probe at a time through to a replica that
		// keeps failing, and lets ReplicaGroup order open-breaker replicas
		// last.
		Breaker: true,
	})
}

// NewForecasterServiceCluster returns a forecaster pulling from a
// partitioned memory cluster: fetches route by series key to the ring
// owners under the membership view served by the registry at nsAddr,
// failing over across a key's owners and refreshing the routing table from
// ownership redirects. timeout bounds each memory call attempt (0 selects
// 5 s).
func NewForecasterServiceCluster(nsAddr string, timeout time.Duration) *ForecasterService {
	return NewForecasterServiceBackend(NewReplicaGroupCluster(forecasterClient(timeout), nsAddr), timeout)
}

// Warm tracks the series named by keys (nil: every series the memory holds)
// and primes their engines in one pull, the history catch-up a restarted
// forecaster owes before its first query. It returns the points consumed; a
// series whose fetch was refused keeps its frontier, and the error is
// non-nil only when the memory group was unreachable.
func (f *ForecasterService) Warm(ctx context.Context, keys []string) (int, error) {
	if keys == nil {
		var err error
		if keys, err = f.group.Series(ctx); err != nil {
			return 0, err
		}
	}
	states := make([]*engineState, len(keys))
	f.mu.Lock()
	for i, k := range keys {
		states[i] = f.engine(k, true)
	}
	f.mu.Unlock()
	p, err := f.pull(ctx, states)
	return p.points, err
}

// pulled is what one pull applied, one entry per state in each slice.
type pulled struct {
	results []FetchResult     // Err is that series' rejection
	changed []*ForecastResult // the new forecast of each state whose engine changed, else nil
	points  int               // points consumed
	applied time.Duration     // time spent applying, f.mu held
}

// pull is the forecaster's one read of the memory, shared by Warm, a cache
// miss and the refresh pass: one FetchBatch of every state's points past its
// frontier, then applyBatch under f.mu. The error is non-nil when no memory
// answered, and nothing is applied then: every state keeps its frontier, and
// the next pull retries from it.
func (f *ForecasterService) pull(ctx context.Context, states []*engineState) (p pulled, err error) {
	if len(states) == 0 {
		return p, nil
	}
	fetches := make([]BatchFetch, len(states))
	f.mu.Lock() // a concurrent pull of the same series moves its frontier
	for i, st := range states {
		fetches[i] = BatchFetch{Series: st.key, From: nextAfter(st.lastT)}
	}
	f.mu.Unlock()
	if p.results, err = f.group.FetchBatch(ctx, fetches); err != nil {
		return pulled{}, err
	}
	// Batch results align with the fetches by position only (FetchResult
	// carries no series echo). A backend returning a short or long slice —
	// a cancelled batch cut mid-envelope, say — would silently feed series
	// A's points into series B's engine from here on; refuse instead.
	if len(p.results) != len(fetches) {
		return pulled{}, fmt.Errorf("nwsnet: forecaster pull returned %d results for %d fetches", len(p.results), len(fetches))
	}
	f.mu.Lock()
	t0 := time.Now()
	p.points, p.changed = f.applyBatch(states, p.results)
	p.applied = time.Since(t0)
	f.mu.Unlock()
	mFcPointsPulled.Add(uint64(p.points))
	return p, nil
}

// applyBatch, the apply step of every pull, feeds each state the points of
// its result past its frontier, re-forecasts every engine that consumed one,
// and tracks a series found by its first points. Callers hold f.mu
// throughout, so no poll or subscribe sees a half-applied tick. It returns
// the points consumed and each state's new forecast, nil if unchanged.
func (f *ForecasterService) applyBatch(states []*engineState, results []FetchResult) (total int, changed []*ForecastResult) {
	changed = make([]*ForecastResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		st, n := states[i], 0
		for _, tv := range res.Points {
			if tv[0] <= st.lastT {
				continue
			}
			st.eng.Update(tv[1])
			st.lastT = tv[0]
			n++
		}
		if n == 0 {
			continue
		}
		total += n
		if st.cached != nil {
			f.cacheInvals.Add(1)
			mFcCacheInvalidations.Inc()
		} else if f.engines[st.key] == nil { // the engine's first points
			f.track(st)
		}
		changed[i] = f.forecastLocked(st)
	}
	return total, changed
}

// engine returns the state for key, creating it on first use. A created
// state is tracked at once if track is set (Warm, a subscription), else by
// applyBatch once a pull finds its points. Callers hold f.mu.
func (f *ForecasterService) engine(key string, track bool) *engineState {
	st := f.engines[key]
	if st == nil {
		st = &engineState{key: key, eng: forecast.NewDefaultEngine(), lastT: -1}
		if track {
			f.track(st)
		}
	}
	return st
}

// track adds st to the series every refresh pass reads. Callers hold f.mu.
func (f *ForecasterService) track(st *engineState) {
	f.engines[st.key] = st
	f.order = append(f.order, st)
	mFcEngines.Set(float64(len(f.engines)))
}

// Handle implements Handler. A forecast answer may carry the cached result
// itself, shared with every other reader and with the refresher's pushes:
// treat its Forecast as read-only.
func (f *ForecasterService) Handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{}
	case OpForecast:
		mFcRequests.Inc()
		if req.Series == "" {
			mFcErrors.Inc()
			return errResp("forecast requires a series key")
		}
		t0 := time.Now()
		resp, selected := f.handleForecast(req.Series, false)
		mFcLatency.ObserveSince(t0)
		if resp.Error != "" {
			mFcErrors.Inc()
		} else {
			selected.Inc()
		}
		return resp
	default:
		return errResp("forecaster: unsupported op %q", req.Op)
	}
}

// handleForecast answers one forecast query, with the counter of the
// method that made the forecast (nil with an error). A subscription (track)
// tracks its series at once; a poll only once its pull found points, so a
// poll for a series the memory does not hold leaves nothing behind.
func (f *ForecasterService) handleForecast(key string, track bool) (Response, *metrics.Counter) {
	f.mu.Lock()
	st := f.engine(key, track)
	// A hit serves the cached result itself, without a copy.
	if st.cached != nil && f.refreshing.Load() {
		res, selected := st.cached, st.selected
		f.mu.Unlock()
		f.cacheHits.Add(1)
		mFcCacheHits.Inc()
		return Response{Forecast: res}, selected
	}
	f.mu.Unlock()
	f.cacheMisses.Add(1)
	mFcCacheMisses.Inc()

	// Pull only points newer than what the engine has consumed. The group
	// fails over across replicas; the deadline bounds the whole read.
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	p, err := f.pull(ctx, []*engineState{st})
	if err == nil {
		err = p.results[0].Err
	}
	if err != nil {
		return errResp("forecast: memory fetch: %v", err), nil
	}
	mFcEngineLatency.Observe(p.applied.Seconds())
	f.mu.Lock()
	defer f.mu.Unlock()
	if st.cached == nil { // the engine has consumed no point yet
		return errResp("forecast: no measurements for %q", key), nil
	}
	return Response{Forecast: st.cached}, st.selected
}

// forecastLocked computes the forecast at st's current frontier and caches
// it; nil before the engine's first point. Callers hold f.mu.
func (f *ForecasterService) forecastLocked(st *engineState) *ForecastResult {
	pred, ok := st.eng.Forecast()
	if !ok {
		return nil
	}
	st.cached = &ForecastResult{Value: pred.Value, Method: pred.Method, MAE: pred.MAE, N: st.eng.N()}
	if pred.Method != st.method {
		st.method, st.selected = pred.Method, mFcMethodSelected.With(pred.Method)
	}
	return st.cached
}

// CacheStats reports the forecast cache's hit/miss/invalidation counts —
// the same values the nws_forecast_cache_* metrics export, readable
// per-instance by in-process harnesses and tests.
func (f *ForecasterService) CacheStats() (hits, misses, invalidations uint64) {
	return f.cacheHits.Load(), f.cacheMisses.Load(), f.cacheInvals.Load()
}

// nextAfter returns the smallest fetch lower bound excluding t. Memory range
// queries are [from, to), so any value strictly greater than t works; the
// measurement cadence is seconds, so a microsecond is far below it.
func nextAfter(t float64) float64 {
	if t < 0 {
		return 0
	}
	return t + 1e-6
}

// --- subscription hub (SubscriptionHandler implementation) ---

// Subscribe implements SubscriptionHandler: it registers the sink for
// pushes on req.Series before computing the acknowledgement, so a refresh
// tick racing the registration can only add a push behind the ack (the
// serve loop holds the sink's write lock across this call), never lose one.
// The ack carries the current forecast when one is computable; a series
// with no measurements yet is still a valid subscription — its first push
// arrives with its first points.
func (f *ForecasterService) Subscribe(req Request, id uint64, sink PushSink) Response {
	if req.Series == "" {
		return errResp("subscribe requires a series key")
	}
	f.hubMu.Lock()
	sinks := f.subs[req.Series]
	if sinks == nil {
		sinks = make(map[PushSink]uint64)
		f.subs[req.Series] = sinks
	}
	_, existed := sinks[sink]
	sinks[sink] = id
	watched := f.bySink[sink]
	if watched == nil {
		watched = make(map[string]struct{})
		f.bySink[sink] = watched
	}
	watched[req.Series] = struct{}{}
	f.hubMu.Unlock()
	if !existed {
		mSubscriptionsActive.Inc()
		if c, ok := sink.(subCounter); ok {
			c.addSubs(1)
		}
	}
	resp, _ := f.handleForecast(req.Series, true)
	return Response{Forecast: resp.Forecast} // no error: a series with no points yet is still subscribed
}

// Unsubscribe implements SubscriptionHandler. Unsubscribing a series that
// was never subscribed acknowledges cleanly (idempotent).
func (f *ForecasterService) Unsubscribe(req Request, sink PushSink) Response {
	if req.Series == "" {
		return errResp("unsubscribe requires a series key")
	}
	f.hubMu.Lock()
	f.removeSubLocked(req.Series, sink)
	f.hubMu.Unlock()
	return Response{}
}

// DropSink implements SubscriptionHandler: connection teardown.
func (f *ForecasterService) DropSink(sink PushSink) {
	f.hubMu.Lock()
	for series := range f.bySink[sink] {
		f.removeSubLocked(series, sink)
	}
	delete(f.unsent, sink)
	f.hubMu.Unlock()
}

// removeSubLocked removes one (series, sink) subscription, if it exists.
// Callers hold hubMu.
func (f *ForecasterService) removeSubLocked(series string, sink PushSink) {
	sinks := f.subs[series]
	if _, ok := sinks[sink]; !ok {
		return
	}
	delete(sinks, sink)
	if len(sinks) == 0 {
		delete(f.subs, series)
	}
	if watched := f.bySink[sink]; watched != nil {
		delete(watched, series)
		if len(watched) == 0 {
			delete(f.bySink, sink)
		}
	}
	mSubscriptionsActive.Dec()
	if c, ok := sink.(subCounter); ok {
		c.addSubs(-1)
	}
}

// Subscriptions reports how many (series, connection) subscriptions are
// currently registered.
func (f *ForecasterService) Subscriptions() int {
	f.hubMu.Lock()
	defer f.hubMu.Unlock()
	n := 0
	for _, sinks := range f.subs {
		n += len(sinks)
	}
	return n
}

// --- background refresher ---

// StartRefresher launches the read plane's maintenance loop, one refresh
// pass (refreshTick) every interval. While it runs, forecast queries are
// served from the cache, so a poll costs no memory round trip and staleness
// is bounded by one tick. interval <= 0 selects 1 s. Idempotent while
// running; StopRefresher ends it, and a stopped refresher does not start
// again.
func (f *ForecasterService) StartRefresher(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	if f.refresher.start(interval, f.refreshTick) {
		f.refreshing.Store(true)
	}
}

// StopRefresher ends the maintenance loop and waits for it; forecast
// queries go back to fetching per query. Safe without a prior
// StartRefresher, and after SetCacheServing.
func (f *ForecasterService) StopRefresher() {
	f.refresher.halt()
	f.refreshing.Store(false)
}

// RefreshNow runs one refresh pass synchronously, the simulated-clock
// counterpart of the refresher: a deterministic harness (cmd/nwsgrid) calls
// it once per virtual cadence tick instead of racing a ticker goroutine
// against the simulation. Combine with SetCacheServing so queries between
// passes are answered from the cache, exactly as under StartRefresher.
func (f *ForecasterService) RefreshNow() { f.refreshTick() }

// SetCacheServing marks the forecast cache authoritative (or not) without
// the refresher: the cache is only safe to serve while something
// invalidates stale entries on behalf of remote stores, which under a
// simulated clock is a harness calling RefreshNow every virtual tick.
// StopRefresher clears the same flag.
func (f *ForecasterService) SetCacheServing(on bool) { f.refreshing.Store(on) }

// refreshTick is one refresh pass: one pull of every tracked series, then a
// push of every changed forecast to its series' subscribers. It holds no
// lock across the pull's fetch or any push (pushing under hubMu or f.mu
// would deadlock against a subscribe in progress).
func (f *ForecasterService) refreshTick() {
	f.mu.Lock()
	// order only grows, and never rewrites an element, so this prefix stays
	// valid to read after f.mu is released.
	states := f.order[:len(f.order):len(f.order)]
	f.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	p, err := f.pull(ctx, states)
	cancel()
	if err != nil {
		return // transient; the next tick retries from the same frontiers
	}

	// One hub snapshot per tick: each changed forecast is encoded once and
	// the body shared by all its subscribers (only the frame's ID differs).
	batches := make(map[PushSink][]PushItem)
	f.hubMu.Lock()
	for i, res := range p.changed {
		if res == nil || len(f.subs[states[i].key]) == 0 {
			continue
		}
		// 64 bytes hold a forecast body in one allocation unless the method
		// name is unusually long.
		if body, err := encodeResponseBody(make([]byte, 0, 64), &Response{OK: true, Forecast: res}, 0); err == nil {
			f.queueLocked(batches, states[i].key, body)
		}
	}
	// A batch dropped last pass goes again, less the frames whose subscription
	// is gone or which this pass supersedes. Only a sink that dropped a batch
	// has its subscriptions walked.
	for sink, items := range f.unsent {
		delete(f.unsent, sink)
		live := make(map[uint64]bool, len(f.bySink[sink]))
		for series := range f.bySink[sink] {
			live[f.subs[series][sink]] = true
		}
		for _, it := range batches[sink] {
			delete(live, it.ID)
		}
		for _, it := range items {
			if live[it.ID] {
				batches[sink] = append(batches[sink], it)
			}
		}
	}
	f.hubMu.Unlock()
	f.deliver(batches, false)
}

// queueLocked appends one frame carrying body to the batch of every sink
// subscribed to series. Callers hold hubMu.
func (f *ForecasterService) queueLocked(batches map[PushSink][]PushItem, series string, body []byte) {
	for sink, id := range f.subs[series] {
		batches[sink] = append(batches[sink], PushItem{ID: id, Body: body})
	}
}

// deliver hands each sink its batch, outside every lock, and settles the
// counters: every frame attempted lands in exactly one of
// nws_forecast_pushes_total and nws_forecast_pushes_dropped_total. The
// frames a busy sink drops are kept for the next refresh pass to send again,
// unless the batch is terminal — its subscriptions are already gone and
// nothing will follow — in which case the subscriber is disconnected instead
// of left listening.
func (f *ForecasterService) deliver(batches map[PushSink][]PushItem, terminal bool) {
	for sink, items := range batches {
		n, err := sink.PushBatch(items)
		mFcPushes.Add(uint64(n))
		mFcPushesDropped.Add(uint64(len(items) - n))
		switch {
		case err != nil:
			// The connection is on its way down and its serve loop will
			// DropSink; dropping here too keeps the next tick from building
			// a batch for a dead sink.
			f.DropSink(sink)
		case n == len(items):
		case terminal:
			if c, ok := sink.(sinkCutter); ok {
				c.cut()
			}
		default: // dropped whole (PushSink)
			f.hubMu.Lock()
			f.unsent[sink] = items
			f.hubMu.Unlock()
		}
	}
}

// --- subscription handoff (partitioned deployments) ---

// SetClusterSelf names this forecaster's member ID in a partitioned
// deployment; AdoptView then hands off subscriptions the forecaster ring
// moves away from this member.
func (f *ForecasterService) SetClusterSelf(id string) { f.selfID.Store(&id) }

// AdoptView reacts to a membership view change (rebalance, join, lease
// expiry): every subscribed series the forecaster ring no longer assigns
// to this member is terminated with a moved push carrying the
// authoritative view, so the subscriber re-routes to the new owner instead
// of listening to a node that would otherwise just go quiet for it.
func (f *ForecasterService) AdoptView(v *cluster.View) {
	self := f.selfID.Load()
	if v == nil || self == nil || *self == "" {
		return
	}
	ring := v.Ring(string(KindForecaster))
	if ring == nil {
		return
	}
	rf := v.Config.Normalize().Replication
	batches := make(map[PushSink][]PushItem)
	f.hubMu.Lock()
	for series, sinks := range f.subs {
		owners := ring.Owners(series, rf)
		if len(owners) == 0 {
			continue // empty forecaster ring: nowhere to redirect
		}
		if slices.Contains(owners, *self) {
			continue
		}
		moved := movedResp(v, "forecast %q: not an owner under epoch %d", series, v.Epoch)
		if body, err := encodeResponseBody(nil, &moved, 0); err == nil {
			f.queueLocked(batches, series, body)
		}
		for sink := range sinks {
			f.removeSubLocked(series, sink)
		}
	}
	f.hubMu.Unlock()
	f.deliver(batches, true)
}

var (
	_ Handler             = (*ForecasterService)(nil)
	_ SubscriptionHandler = (*ForecasterService)(nil)
)
