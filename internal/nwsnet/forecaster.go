package nwsnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nwscpu/internal/forecast"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// FetchBackend is the read-plane contract a ForecasterService pulls
// history through: satisfied by a ReplicaGroup on either placement (fixed
// replicas or ring-routed cluster owners) and by the in-process
// LocalBackend, so the incremental-engine logic is identical across
// deployments.
type FetchBackend interface {
	Fetch(ctx context.Context, key string, from, to float64, max int) ([][2]float64, error)
	FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error)
	Series(ctx context.Context) ([]string, error)
	Health() []ReplicaHealth
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

	// Subscription hub (docs/PROTOCOL.md §8): which push sinks watch which
	// series. Guarded by hubMu, which is never held across a PushBatch — the
	// serve loop holds a sink's write lock while registering, so pushing
	// under hubMu would invert that order and deadlock.
	hubMu  sync.Mutex
	subs   map[string]map[PushSink]uint64 // series → sink → subscription request ID
	bySink map[PushSink]map[string]struct{}

	// refreshing is set while the background refresher runs (or a harness
	// driving RefreshNow says so); the per-series forecast cache is
	// authoritative only then (without the refresher nothing would ever
	// invalidate a stale entry on behalf of remote stores).
	refreshing atomic.Bool
	refresher  loop

	// selfID is this forecaster's cluster member ID, when it serves a slice
	// of a partitioned deployment; AdoptView uses it to hand off
	// subscriptions for series the forecaster ring no longer assigns here.
	selfID atomic.Pointer[string]

	cacheHits, cacheMisses, cacheInvals atomic.Uint64 // mirrors of the global counters, for in-process harnesses
}

type engineState struct {
	eng   *forecast.Engine
	lastT float64
	// cached is the memoized forecast at the current frontier, nil after
	// any update touched the engine. Served to queries only while the
	// refresher runs (it bounds staleness to one tick).
	cached *ForecastResult
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
		// Probe-limiter mode (see NewSensorDaemon): never delays a
		// sequential caller, but bounds concurrent hammering of a replica
		// that keeps failing, and lets ReplicaGroup order open-breaker
		// replicas last.
		Breaker: &resilience.BreakerConfig{OpenFor: -1},
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

// Replicas reports the health of the forecaster's memory replica group.
func (f *ForecasterService) Replicas() []ReplicaHealth { return f.group.Health() }

// Warm primes per-series engines by batch-fetching every series' unseen
// history in one round trip per replica attempt instead of one fetch per
// series — the history catch-up a restarted forecaster owes for each series
// before its first query. keys == nil warms every series the memory
// currently holds. It returns the number of points consumed; per-series
// rejections are skipped, and the error is non-nil only when the memory
// group was unreachable.
func (f *ForecasterService) Warm(ctx context.Context, keys []string) (int, error) {
	if keys == nil {
		var err error
		keys, err = f.group.Series(ctx)
		if err != nil {
			return 0, err
		}
	}
	if len(keys) == 0 {
		return 0, nil
	}
	fetches := make([]BatchFetch, len(keys))
	states := make([]*engineState, len(keys))
	f.mu.Lock()
	for i, k := range keys {
		states[i] = f.engine(k)
		fetches[i] = BatchFetch{Series: k, From: nextAfter(states[i].lastT)}
	}
	f.mu.Unlock()

	results, err := f.group.FetchBatch(ctx, fetches)
	if err != nil {
		return 0, err
	}
	// Batch results align with the fetches by position only (FetchResult
	// carries no series echo). A backend returning a short or long slice —
	// a cancelled batch cut mid-envelope, say — would silently feed series
	// A's points into series B's engine from here on; refuse instead. The
	// skipped series keep their frontier, so the next Warm or Forecast
	// re-primes them from where priming actually stopped.
	if len(results) != len(fetches) {
		return 0, fmt.Errorf("nwsnet: warm batch returned %d results for %d fetches", len(results), len(fetches))
	}
	// A series whose priming failed keeps its frontier untouched, so it is
	// not marked warm in any sense — no cached forecast exists for it until
	// a later Warm or Forecast succeeds.
	f.mu.Lock()
	total, _ := f.applyBatch(states, results)
	f.mu.Unlock()
	mFcPointsPulled.Add(uint64(total))
	return total, nil
}

// applyBatch feeds results[i].Points into states[i] and re-forecasts (and
// re-caches) every engine that consumed a point, the one apply step Warm and
// refreshTick share. Callers hold f.mu throughout, so no poll or subscribe
// sees a half-applied tick. It returns the points consumed and the indexes
// of the changed forecasts in batch order.
func (f *ForecasterService) applyBatch(states []*engineState, results []FetchResult) (total int, changed []int) {
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		n := f.applyLocked(states[i], res.Points)
		total += n
		if n == 0 {
			continue
		}
		if _, ok := f.forecastLocked(states[i]); ok {
			changed = append(changed, i)
		}
	}
	return total, changed
}

// applyLocked feeds every point newer than the frontier into st, dropping
// any cached forecast the moment the engine changes. Returns the number of
// points consumed. Callers hold f.mu.
func (f *ForecasterService) applyLocked(st *engineState, points [][2]float64) int {
	n := 0
	for _, tv := range points {
		if tv[0] <= st.lastT {
			continue
		}
		st.eng.Update(tv[1])
		st.lastT = tv[0]
		n++
	}
	if n > 0 && st.cached != nil {
		st.cached = nil
		f.cacheInvals.Add(1)
		mFcCacheInvalidations.Inc()
	}
	return n
}

// engine returns (creating on first use) the state for key. Callers must
// hold f.mu.
func (f *ForecasterService) engine(key string) *engineState {
	st := f.engines[key]
	if st == nil {
		st = &engineState{eng: forecast.NewDefaultEngine(), lastT: -1}
		f.engines[key] = st
		mFcEngines.Set(float64(len(f.engines)))
	}
	return st
}

// Handle implements Handler.
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
		resp := f.handleForecast(req.Series)
		mFcLatency.ObserveSince(t0)
		if resp.Error != "" {
			mFcErrors.Inc()
		} else if resp.Forecast != nil {
			mFcMethodSelected.With(resp.Forecast.Method).Inc()
		}
		return resp
	default:
		return errResp("forecaster: unsupported op %q", req.Op)
	}
}

func (f *ForecasterService) handleForecast(key string) Response {
	f.mu.Lock()
	st := f.engine(key)
	// The cached result is the answer at the current frontier; it is
	// authoritative only while the refresher runs, because only the
	// refresher observes stores made by other clients and invalidates.
	if st.cached != nil && f.refreshing.Load() {
		res := *st.cached
		f.mu.Unlock()
		f.cacheHits.Add(1)
		mFcCacheHits.Inc()
		return Response{Forecast: &res}
	}
	from := nextAfter(st.lastT) // read under f.mu: a concurrent miss on the same series moves it
	f.mu.Unlock()
	f.cacheMisses.Add(1)
	mFcCacheMisses.Inc()

	// Pull only points newer than what the engine has consumed. The group
	// fails over across replicas; the deadline bounds the whole read.
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	points, err := f.group.Fetch(ctx, key, from, 0, 0)
	if err != nil {
		return errResp("forecast: memory fetch: %v", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	tEng := time.Now()
	mFcPointsPulled.Add(uint64(f.applyLocked(st, points)))
	res, ok := f.forecastLocked(st)
	mFcEngineLatency.ObserveSince(tEng)
	if !ok {
		return errResp("forecast: no measurements for %q", key)
	}
	return Response{Forecast: res}
}

// forecastLocked computes the forecast at st's current frontier and caches
// it. Callers hold f.mu.
func (f *ForecasterService) forecastLocked(st *engineState) (*ForecastResult, bool) {
	pred, ok := st.eng.Forecast()
	if !ok {
		return nil, false
	}
	res := &ForecastResult{
		Value:  pred.Value,
		Method: pred.Method,
		MAE:    pred.MAE,
		N:      st.eng.N(),
	}
	st.cached = res
	return res, true
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
	ack := Response{}
	if resp := f.handleForecast(req.Series); resp.Error == "" {
		ack.Forecast = resp.Forecast
	}
	return ack
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
	f.hubMu.Unlock()
}

// removeSubLocked removes one (series, sink) subscription, reporting
// whether it existed. Callers hold hubMu.
func (f *ForecasterService) removeSubLocked(series string, sink PushSink) bool {
	sinks := f.subs[series]
	if _, ok := sinks[sink]; !ok {
		return false
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
	return true
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

// StartRefresher launches the read plane's maintenance loop: every interval
// it batch-fetches the unseen points of every tracked series in one round
// trip, feeds the engines, recomputes and re-caches changed forecasts, and
// pushes them to each changed series' subscribers. While it runs, forecast
// queries are served from the cache, so a poll costs no memory round trip
// and staleness is bounded by one tick. interval <= 0 selects 1 s.
// Idempotent while running; StopRefresher ends it, and a stopped refresher
// does not start again.
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

// RefreshNow runs one maintenance pass synchronously: batch-fetch every
// tracked series' unseen points, feed the engines, re-cache changed
// forecasts and push them to subscribers. It is the simulated-clock
// counterpart of the wall-clock refresher: a deterministic harness
// (cmd/nwsgrid) calls it once per virtual cadence tick instead of racing a
// ticker goroutine against the simulation. Combine with SetCacheServing so
// queries between passes are answered from the cache, exactly as they
// would be under StartRefresher.
func (f *ForecasterService) RefreshNow() { f.refreshTick() }

// SetCacheServing marks the per-series forecast cache authoritative (or
// not) without launching the background refresher. The cache is only safe
// to serve while *something* invalidates stale entries on behalf of remote
// stores; StartRefresher is that something in wall-clock deployments, and
// a harness driving RefreshNow every virtual tick is the equivalent under
// a simulated clock. StopRefresher clears the same flag.
func (f *ForecasterService) SetCacheServing(on bool) { f.refreshing.Store(on) }

// refreshTick is one maintenance pass. It holds no lock across the batch
// fetch or any push (pushing under hubMu or f.mu would deadlock against a
// subscribe in progress).
func (f *ForecasterService) refreshTick() {
	f.mu.Lock()
	keys := make([]string, 0, len(f.engines))
	states := make([]*engineState, 0, len(f.engines))
	fetches := make([]BatchFetch, 0, len(f.engines))
	for k, st := range f.engines {
		keys = append(keys, k)
		states = append(states, st)
		fetches = append(fetches, BatchFetch{Series: k, From: nextAfter(st.lastT)})
	}
	f.mu.Unlock()
	if len(fetches) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	results, err := f.group.FetchBatch(ctx, fetches)
	cancel()
	if err != nil || len(results) != len(fetches) {
		return // transient; the next tick retries from the same frontiers
	}
	f.mu.Lock()
	total, changed := f.applyBatch(states, results)
	// A cached forecast is replaced, never modified, so the pointers stay
	// valid to encode from after f.mu is released.
	forecasts := make([]*ForecastResult, len(changed))
	for j, i := range changed {
		forecasts[j] = states[i].cached
	}
	f.mu.Unlock()
	mFcPointsPulled.Add(uint64(total))

	// One hub snapshot per tick: each changed forecast is encoded once and
	// the body shared by all its subscribers (only the frame's ID differs).
	batches := make(map[PushSink][]PushItem)
	f.hubMu.Lock()
	for j, i := range changed {
		if len(f.subs[keys[i]]) == 0 {
			continue
		}
		// 64 bytes hold a forecast body in one allocation unless the method
		// name is unusually long.
		body, err := encodeResponseBody(make([]byte, 0, 64), &Response{OK: true, Forecast: forecasts[j]}, 0)
		if err != nil {
			continue
		}
		f.queueLocked(batches, keys[i], body)
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
// nws_forecast_pushes_total and nws_forecast_pushes_dropped_total. A batch a
// busy sink drops is superseded by the next tick's, unless it is terminal —
// its subscriptions are already gone and nothing will follow — in which case
// the subscriber is disconnected instead of left listening.
func (f *ForecasterService) deliver(batches map[PushSink][]PushItem, terminal bool) {
	for sink, items := range batches {
		n, err := sink.PushBatch(items)
		mFcPushes.Add(uint64(n))
		mFcPushesDropped.Add(uint64(len(items) - n))
		if err != nil {
			// The connection is on its way down and its serve loop will
			// DropSink; dropping here too keeps the next tick from building
			// a batch for a dead sink.
			f.DropSink(sink)
		} else if terminal && n < len(items) {
			if c, ok := sink.(sinkCutter); ok {
				c.cut()
			}
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
		owned := false
		for _, id := range owners {
			if id == *self {
				owned = true
				break
			}
		}
		if owned {
			continue
		}
		moved := movedResp(v, "forecast %q: not an owner under epoch %d", series, v.Epoch)
		body, err := encodeResponseBody(nil, &moved, 0)
		if err == nil {
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
