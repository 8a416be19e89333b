package nwsnet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
)

// startForecastPlane runs a memory server plus a forecaster over it with
// the refresher ticking, returning the memory handler (store points through
// it directly), the forecaster, and the forecaster's address.
func startForecastPlane(t *testing.T, tick time.Duration) (*Memory, *ForecasterService, string) {
	t.Helper()
	mem := NewMemory(0)
	_, memAddr := startServerLimits(t, mem, ServerLimits{})
	f := NewForecasterService([]string{memAddr}, 2*time.Second)
	f.StartRefresher(tick)
	t.Cleanup(f.StopRefresher)
	_, fcAddr := startServerLimits(t, f, ServerLimits{})
	return mem, f, fcAddr
}

// TestSubscribeAckAndPush walks the whole read-plane lifecycle on one
// connection: subscribe acks with the current forecast, a remote store is
// pushed within a refresh tick, and unsubscribe stops the pushes.
func TestSubscribeAckAndPush(t *testing.T) {
	mem, _, fcAddr := startForecastPlane(t, 20*time.Millisecond)
	if resp := mem.Handle(Request{Op: OpStore, Series: "s", Points: [][2]float64{{1, 0.5}, {2, 0.5}, {3, 0.5}}}); resp.Error != "" {
		t.Fatal(resp.Error)
	}

	mux, err := DialMux(fcAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	pushes := make(chan Response, 16)
	ack, err := mux.Subscribe("s", func(resp Response, err error) {
		if err == nil {
			pushes <- resp
		}
	}).Wait()
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if ack.Forecast == nil || ack.Forecast.N != 3 {
		t.Fatalf("ack forecast %+v, want one over 3 points", ack.Forecast)
	}
	mux.mu.Lock()
	subs := len(mux.subs)
	mux.mu.Unlock()
	if subs != 1 {
		t.Fatalf("client tracks %d subscriptions, want 1", subs)
	}

	mem.Handle(Request{Op: OpStore, Series: "s", Points: [][2]float64{{4, 0.5}, {5, 0.5}}})
	select {
	case resp := <-pushes:
		if resp.Forecast == nil || resp.Forecast.N != 5 {
			t.Fatalf("push forecast %+v, want one over 5 points", resp.Forecast)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push within 100 refresh ticks of the store")
	}

	if _, err := mux.Go(Request{Op: OpUnsubscribe, Series: "s"}).Wait(); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}
	mem.Handle(Request{Op: OpStore, Series: "s", Points: [][2]float64{{6, 0.5}}})
	select {
	case resp := <-pushes:
		t.Fatalf("push %+v after unsubscribe", resp.Forecast)
	case <-time.After(150 * time.Millisecond):
	}
}

// quiesceSinks waits until no subscribed connection is mid-write: a client
// sees an acknowledgement a moment before the serve loop lets go of the
// connection's write lock, and a push that finds the lock held is dropped by
// design. Tests that count pushes exactly wait that moment out.
func quiesceSinks(f *ForecasterService) {
	f.hubMu.Lock()
	sinks := make([]*binSink, 0, len(f.bySink))
	for sink := range f.bySink {
		sinks = append(sinks, sink.(*binSink))
	}
	f.hubMu.Unlock()
	for _, sink := range sinks {
		sink.mu.Lock()
		sink.mu.Unlock() // nothing to do inside: waiting for the holder is the point
	}
}

// TestManySubscribersOneTick drives the read plane pass by pass (RefreshNow,
// no ticker) and counts: connections race to subscribe, every series changes
// in exactly one pass, and each subscriber must see each change exactly once
// — the hub may not drop a sink mid-registration, a pass that consumed no new
// points may not push, and pushes_total + pushes_dropped_total must equal the
// frames attempted. The large row is the 10 000-subscription serving run:
// four pollers hammer OpForecast beside the passes and the forecast cache
// must answer at least nine in ten of their polls. Run under
// -race, it is also the lock-order check for the sink-write/hub/engine lock
// triangle.
func TestManySubscribersOneTick(t *testing.T) {
	const pollers = 4
	rows := []struct {
		name          string
		conns, series int // every connection subscribes to every series
		prefill       int // points per series before anyone subscribes
		passes        int // pass p changes the series whose index is p modulo passes
		polls         int // OpForecast calls per poller, concurrent with the passes
		minHitRate    float64
	}{
		{"32 connections race for one series", 32, 1, 0, 1, 0, 0},
		{"10k subscriptions over 8 connections", 8, 1250, 16, 4, 2500, 0.9},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mem := NewMemory(0)
			_, memAddr := startServerLimits(t, mem, ServerLimits{})
			f := NewForecasterService([]string{memAddr}, 10*time.Second)
			f.SetCacheServing(true)
			fcSrv, fcAddr := startServerLimits(t, f, ServerLimits{})
			keys := make([]string, row.series)
			for i := range keys {
				keys[i] = fmt.Sprintf("host%04d/cpu/nws_hybrid", i)
				for p := 1; p <= row.prefill; p++ {
					mustStore(t, mem, keys[i], [2]float64{float64(p), 0.5})
				}
			}

			seen := make([]atomic.Int64, row.conns)
			conns := make([]*MuxConn, row.conns)
			var wg sync.WaitGroup
			errs := make(chan error, row.conns+pollers)
			for i := range conns {
				mux, err := DialMux(fcAddr, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer mux.Close()
				conns[i] = mux
				wg.Add(1)
				go func() {
					defer wg.Done()
					acks := make([]*MuxCall, len(keys))
					for k, key := range keys {
						acks[k] = mux.Subscribe(key, func(_ Response, err error) {
							if err == nil {
								seen[i].Add(1)
							}
						})
					}
					for _, ack := range acks {
						if _, err := ack.Wait(); err != nil {
							errs <- fmt.Errorf("subscriber %d: %w", i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if n := f.Subscriptions(); n != row.conns*row.series {
				t.Fatalf("hub holds %d subscriptions, want %d", n, row.conns*row.series)
			}

			// Registration is over (racing first subscribers of a series each
			// miss); from here on the cache is serving.
			hits0, misses0, _ := f.CacheStats()
			for q := 0; q < pollers; q++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mux, err := DialMux(fcAddr, 10*time.Second)
					if err != nil {
						errs <- err
						return
					}
					defer mux.Close()
					for i := 0; i < row.polls; i++ {
						if _, err := mux.Do(Request{Op: OpForecast, Series: keys[(q+pollers*i)%len(keys)]}); err != nil {
							errs <- fmt.Errorf("poller %d: %w", q, err)
							return
						}
					}
				}()
			}

			// pass runs one refresh with no connection mid-write, then a ping
			// on every connection: responses follow pushes on the wire, so
			// once the pings are back every push of the pass has been seen.
			pushes0, dropped0 := mFcPushes.Value(), mFcPushesDropped.Value()
			pass := func(wantEach int64) {
				t.Helper()
				quiesceSinks(f)
				f.RefreshNow()
				for i, mux := range conns {
					if _, err := mux.Do(Request{Op: OpPing}); err != nil {
						t.Fatal(err)
					}
					if got := seen[i].Load(); got != wantEach {
						t.Fatalf("connection %d saw %d pushes, want exactly %d", i, got, wantEach)
					}
				}
			}
			var changed int64
			for p := 0; p < row.passes; p++ {
				for i := p; i < len(keys); i += row.passes {
					mustStore(t, mem, keys[i], [2]float64{float64(row.prefill + 1), 0.25})
					changed++
				}
				pass(changed)
			}
			pass(changed) // nothing new: nothing pushed
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			attempted := uint64(changed) * uint64(row.conns)
			pushed, dropped := mFcPushes.Value()-pushes0, mFcPushesDropped.Value()-dropped0
			if pushed != attempted || dropped != 0 {
				t.Errorf("pushes_total moved by %d and pushes_dropped_total by %d, want all %d frames attempted pushed", pushed, dropped, attempted)
			}
			hits, misses, _ := f.CacheStats()
			hits, misses = hits-hits0, misses-misses0
			if float64(hits) < row.minHitRate*float64(hits+misses) {
				t.Errorf("forecast cache answered %d of %d polls, want at least %.0f%%", hits, hits+misses, 100*row.minHitRate)
			}

			// Teardown drops every subscription server-side: Close returns once
			// every serve loop has.
			for _, mux := range conns {
				mux.Close()
			}
			fcSrv.Close()
			if n := f.Subscriptions(); n != 0 {
				t.Fatalf("hub still holds %d subscriptions after every connection closed", n)
			}
		})
	}
}

// TestSubscribedConnectionSurvivesIdleTimeout checks the idle-reaper
// exemption: a connection whose only activity is inbound pushes must not be
// shed, while an unsubscribed idle connection on the same server still is.
func TestSubscribedConnectionSurvivesIdleTimeout(t *testing.T) {
	mem := NewMemory(0)
	_, memAddr := startServerLimits(t, mem, ServerLimits{})
	f := NewForecasterService([]string{memAddr}, 2*time.Second)
	f.StartRefresher(20 * time.Millisecond)
	t.Cleanup(f.StopRefresher)
	_, fcAddr := startServerLimits(t, f, ServerLimits{IdleTimeout: 120 * time.Millisecond})

	mux, err := DialMux(fcAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	var pushed atomic.Int64
	if _, err := mux.Subscribe("s", func(resp Response, err error) {
		if err == nil {
			pushed.Add(1)
		}
	}).Wait(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(400 * time.Millisecond) // several idle-timeout laps, zero requests
	mem.Handle(Request{Op: OpStore, Series: "s", Points: [][2]float64{{1, 1}}})
	deadline := time.Now().Add(2 * time.Second)
	for pushed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscribed connection was idle-reaped: store never pushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The connection is still serviceable for ordinary requests too.
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatalf("ping on long-idle subscribed connection: %v", err)
	}
}

// TestStopRefresherAfterCacheServing checks that the two owners of the
// cache-authoritative flag compose: StopRefresher after SetCacheServing
// (with no refresher ever started) must not panic, and must hand polls back
// to the memory, so a store made after it reaches the next forecast.
func TestStopRefresherAfterCacheServing(t *testing.T) {
	mem := NewMemory(0)
	f := NewForecasterServiceBackend(NewLocalBackend(mem), 0)
	mustStore(t, mem, "s", [2]float64{1, 0.5}, [2]float64{2, 0.5})
	f.SetCacheServing(true)
	if r := f.Handle(Request{Op: OpForecast, Series: "s"}); r.Forecast == nil || r.Forecast.N != 2 {
		t.Fatalf("first poll %+v, want a forecast over 2 points", r)
	}
	f.StopRefresher()
	mustStore(t, mem, "s", [2]float64{3, 0.5})
	_, misses0, _ := f.CacheStats()
	r := f.Handle(Request{Op: OpForecast, Series: "s"})
	if _, misses1, _ := f.CacheStats(); misses1 != misses0+1 {
		t.Fatalf("poll after StopRefresher was served from the cache (misses %d -> %d)", misses0, misses1)
	}
	if r.Forecast == nil || r.Forecast.N != 3 {
		t.Fatalf("poll after StopRefresher %+v, want a forecast over 3 points", r)
	}
}

// TestMuxCallsFailAgainstClosedServer checks the failure semantics stay
// explicit: a MuxConn whose server is gone does not reconnect on its own, so
// every call issued on it completes with an error rather than hanging or
// retrying behind the caller's back.
func TestMuxCallsFailAgainstClosedServer(t *testing.T) {
	mem := NewMemory(0)
	srv, addr := startServerLimits(t, mem, ServerLimits{})
	mux, err := DialMux(addr, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	if _, err := mux.Do(Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	// The burst hits a closed server: every call completes with an error.
	calls := make([]*MuxCall, 8)
	for i := range calls {
		calls[i] = mux.Go(Request{Op: OpStore, Series: "k", Points: [][2]float64{{float64(i + 1), 1}}})
	}
	for i, c := range calls {
		if _, err := c.Wait(); err == nil {
			t.Fatalf("call %d succeeded against a closed server", i)
		}
	}
}

// TestWarmPartialFailure is the regression for half-primed warm-up: when
// priming fails for one series mid-batch, the others must land in their own
// engines (no positional cross-feeding), the failed series must stay
// cold — not marked warm — and the next Warm must re-prime it from its
// untouched frontier.
func TestWarmPartialFailure(t *testing.T) {
	mem := NewMemory(0)
	var failBad atomic.Bool
	// Chaos wrapper: truncate (fail) the "bad" sub-fetch inside a batch,
	// exactly what a mid-envelope cancellation does to one series.
	flaky := handlerFunc(func(req Request) Response {
		resp := mem.Handle(req)
		if failBad.Load() && req.Op == OpBatch {
			for i, sub := range req.Batch {
				if sub.Op == OpFetch && sub.Series == "bad" && i < len(resp.Batch) {
					resp.Batch[i] = errResp("chaos: truncated fetch")
				}
			}
		}
		return resp
	})
	_, addr := startServerLimits(t, flaky, ServerLimits{})

	const per = 50
	good := make([][2]float64, per)
	bad := make([][2]float64, per)
	for i := 0; i < per; i++ {
		good[i] = [2]float64{float64(i + 1), 1.0}
		bad[i] = [2]float64{float64(i + 1), 2.0}
	}
	mem.Handle(Request{Op: OpStore, Series: "good", Points: good})
	mem.Handle(Request{Op: OpStore, Series: "bad", Points: bad})

	f := NewForecasterService([]string{addr}, 2*time.Second)
	ctx := context.Background()

	failBad.Store(true)
	n, err := f.Warm(ctx, []string{"good", "bad"})
	if err != nil {
		t.Fatalf("warm with one failed series: %v", err)
	}
	if n != per {
		t.Fatalf("first warm consumed %d points, want %d (good only)", n, per)
	}

	failBad.Store(false)
	n, err = f.Warm(ctx, []string{"good", "bad"})
	if err != nil {
		t.Fatal(err)
	}
	if n != per {
		t.Fatalf("re-warm consumed %d points, want %d (bad, from its untouched frontier)", n, per)
	}

	// Both engines forecast over their own full history; a constant series
	// forecasts its constant, so a cross-fed point would move the value.
	for series, want := range map[string]float64{"good": 1.0, "bad": 2.0} {
		resp := f.Handle(Request{Op: OpForecast, Series: series})
		if resp.Error != "" {
			t.Fatalf("forecast %q: %s", series, resp.Error)
		}
		if resp.Forecast.N != per {
			t.Fatalf("forecast %q over %d points, want %d", series, resp.Forecast.N, per)
		}
		if resp.Forecast.Value != want {
			t.Fatalf("forecast %q = %g, want %g — engines cross-fed", series, resp.Forecast.Value, want)
		}
	}
}

// TestAdoptViewHandsOffSubscriptions checks the ownership-change path: when
// a view stops assigning a subscribed series to this forecaster, the
// subscriber gets one terminal moved push carrying the authoritative view,
// and the hub forgets the subscription. Series still owned keep flowing.
func TestAdoptViewHandsOffSubscriptions(t *testing.T) {
	_, f, fcAddr := startForecastPlane(t, 20*time.Millisecond)
	f.SetClusterSelf("fc-self")

	mux, err := DialMux(fcAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	type end struct {
		resp Response
		err  error
	}
	moved := make(chan end, 1)
	if _, err := mux.Subscribe("a", func(resp Response, err error) {
		if err != nil {
			moved <- end{resp, err}
		}
	}).Wait(); err != nil {
		t.Fatal(err)
	}

	// A view that still assigns everything here: nothing moves.
	keep := &cluster.View{
		Epoch:  3,
		Config: cluster.Config{Replication: 1, VNodes: 16},
		Members: []cluster.Member{
			{ID: "fc-self", Kind: string(KindForecaster), Addr: fcAddr, State: cluster.StateActive},
		},
	}
	f.AdoptView(keep)
	if n := f.Subscriptions(); n != 1 {
		t.Fatalf("owned subscription dropped by a view that kept it (%d left)", n)
	}

	// A view that moves every series to another member: one moved push. The
	// client sees the subscribe ack a moment before the serve loop lets go of
	// the connection's write lock; wait that moment out, so the handoff finds
	// an idle connection (TestAdoptViewTerminalPushOnBusySink is the other
	// case).
	quiesceSinks(f)
	f.AdoptView(awayView(4))
	select {
	case got := <-moved:
		if _, ok := IsMoved(got.err); !ok {
			t.Fatalf("terminal push classified %v, want moved", got.err)
		}
		if got.resp.View == nil || got.resp.View.Epoch != 4 {
			t.Fatalf("moved push view %+v, want the epoch-4 view", got.resp.View)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no moved push after losing ownership")
	}
	if n := f.Subscriptions(); n != 0 {
		t.Fatalf("hub still holds %d subscriptions after handoff", n)
	}
}

// subscribedSink returns the server-side write half of the one connection
// subscribed to series.
func subscribedSink(t *testing.T, f *ForecasterService, series string) *binSink {
	t.Helper()
	f.hubMu.Lock()
	defer f.hubMu.Unlock()
	for sink := range f.subs[series] {
		return sink.(*binSink)
	}
	t.Fatalf("no connection subscribed to %q", series)
	return nil
}

// awayView assigns every forecast series to a member that is not this
// forecaster.
func awayView(epoch uint64) *cluster.View {
	return &cluster.View{
		Epoch:  epoch,
		Config: cluster.Config{Replication: 1, VNodes: 16},
		Members: []cluster.Member{
			{ID: "fc-other", Kind: string(KindForecaster), Addr: "127.0.0.1:9", State: cluster.StateActive},
		},
	}
}

// TestAdoptViewTerminalPushOnBusySink: a handoff removes the subscription
// server-side, so its terminal push may not be shed the way a refresh tick's
// superseded forecasts are. With the connection's write lock held while
// AdoptView runs — what a response still draining looks like to PushBatch —
// the subscriber must still get exactly one terminal call (the moved push,
// or the transport error of a connection cut on its behalf), and the frame
// that was not written is counted as dropped.
func TestAdoptViewTerminalPushOnBusySink(t *testing.T) {
	_, f, fcAddr := startForecastPlane(t, time.Hour)
	f.SetClusterSelf("fc-self")
	mux, err := DialMux(fcAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	terminal := make(chan error, 4)
	if _, err := mux.Subscribe("a", func(_ Response, err error) {
		if err != nil {
			terminal <- err
		}
	}).Wait(); err != nil {
		t.Fatal(err)
	}
	sink := subscribedSink(t, f, "a")
	dropped0 := mFcPushesDropped.Value()

	sink.mu.Lock()
	f.AdoptView(awayView(4))
	sink.mu.Unlock()

	if n := f.Subscriptions(); n != 0 {
		t.Fatalf("hub still holds %d subscriptions after handoff", n)
	}
	select {
	case <-terminal:
	case <-time.After(2 * time.Second):
		t.Fatal("subscription removed server-side without a terminal call: the subscriber listens forever")
	}
	mux.Close() // reader gone: no further call can arrive
	if n := len(terminal); n != 0 {
		t.Fatalf("%d terminal calls after the first, want exactly one", n)
	}
	if got := mFcPushesDropped.Value() - dropped0; got != 1 {
		t.Fatalf("pushes dropped delta = %d, want 1 (the unwritten moved frame)", got)
	}
}
