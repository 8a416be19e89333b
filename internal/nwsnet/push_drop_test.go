package nwsnet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// newStalledSink builds a binSink over a net.Pipe whose far end nobody
// reads — the wire picture of a subscriber that stopped draining its
// socket. The tiny write buffer makes every push hit the pipe directly.
func newStalledSink(t *testing.T, limits ServerLimits) (*binSink, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return &binSink{conn: c1, limits: limits, w: bufio.NewWriterSize(c1, 16)}, c2
}

func pushResult() Response {
	return Response{OK: true, Forecast: &ForecastResult{Value: 0.5, Method: "mean", MAE: 0.01, N: 10}}
}

// pushBatchOf builds n push items carrying resp, IDs first, first+1, ...
func pushBatchOf(t *testing.T, first uint64, n int, resp Response) []PushItem {
	t.Helper()
	body, err := encodeResponseBody(nil, resp, 0)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]PushItem, n)
	for i := range items {
		items[i] = PushItem{ID: first + uint64(i), Body: body}
	}
	return items
}

// recordConn is a net.Conn that keeps what was written and counts the
// calls a push batch is supposed to make once per connection, not once per
// frame.
type recordConn struct {
	net.Conn // nil: only the methods below are reached

	mu        sync.Mutex
	out       bytes.Buffer
	writes    int
	deadlines []time.Time // every SetWriteDeadline argument, in order
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	return c.out.Write(p)
}

func (c *recordConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines = append(c.deadlines, t)
	return nil
}

func (c *recordConn) SetReadDeadline(time.Time) error { return nil }

// TestPushBatchByteIdentity pins the wire format of a batch: N items
// through binSink.PushBatch are exactly the bytes N single responses
// produce through encodeResponsePayload + writeFrame, so batching is
// invisible to every existing client and to PROTOCOL.md §8.
func TestPushBatchByteIdentity(t *testing.T) {
	responses := []Response{
		pushResult(),
		{OK: true, Forecast: &ForecastResult{Value: 0.25, Method: "sliding_median(31)", MAE: 0.125, N: 1 << 20}},
		movedResp(nil, "forecast %q: not an owner under epoch %d", "h/cpu/m", 4),
	}
	ids := []uint64{1, 127, 128, 1 << 40}

	var want bytes.Buffer
	ww := bufio.NewWriter(&want)
	var items []PushItem
	for _, resp := range responses {
		body, err := encodeResponseBody(nil, resp, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			payload, err := encodeResponsePayload(nil, id, resp)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(ww, payload); err != nil {
				t.Fatal(err)
			}
			items = append(items, PushItem{ID: id, Body: body})
		}
	}
	ww.Flush()

	conn := &recordConn{}
	sink := &binSink{conn: conn, w: bufio.NewWriter(conn)}
	n, err := sink.PushBatch(items)
	if err != nil || n != len(items) {
		t.Fatalf("PushBatch = %d, %v; want %d, nil", n, err, len(items))
	}
	if !bytes.Equal(conn.out.Bytes(), want.Bytes()) {
		t.Fatalf("batch wrote\n% x\nsingle frames are\n% x", conn.out.Bytes(), want.Bytes())
	}
}

// TestPushBatchOversizeItemWritesNothing: an item no frame can carry fails
// its batch whole — before the deadline is armed or a byte written — and
// leaves the connection usable for the next batch.
func TestPushBatchOversizeItemWritesNothing(t *testing.T) {
	conn := &recordConn{}
	sink := &binSink{conn: conn, w: bufio.NewWriter(conn)}
	items := pushBatchOf(t, 1, 3, pushResult())
	items[2].Body = make([]byte, maxFrameBytes)
	if n, err := sink.PushBatch(items); n != 0 || err == nil {
		t.Fatalf("oversize batch = %d, %v; want 0 and an error", n, err)
	}
	if conn.writes != 0 || len(conn.deadlines) != 0 || sink.w.Buffered() != 0 {
		t.Fatalf("oversize batch touched the connection: %d writes, %d deadlines, %d buffered",
			conn.writes, len(conn.deadlines), sink.w.Buffered())
	}
	if n, err := sink.PushBatch(items[:2]); n != 2 || err != nil {
		t.Fatalf("batch after the oversize one = %d, %v; want 2, nil", n, err)
	}
}

// TestRefreshTickOneWritePerConnection is the cost contract of the push
// plane: one tick fanning 1024 changed forecasts out to 1024 subscriptions
// on one connection costs one deadline arm, one clear and as many writes as
// the connection's 4 KB buffer forces — not 1024 of each.
func TestRefreshTickOneWritePerConnection(t *testing.T) {
	const series = 1024
	mem := NewMemory(0)
	f := NewForecasterServiceBackend(NewLocalBackend(mem), 0)
	conn := &recordConn{}
	sink := &binSink{conn: conn, w: bufio.NewWriter(conn)}
	keys := make([]string, series)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%04d/cpu/m", i)
		mem.Handle(Request{Op: OpStore, Series: keys[i], Points: [][2]float64{{1, 0.5}}})
		if resp := f.Subscribe(Request{Op: OpSubscribe, Series: keys[i]}, uint64(i+1), sink); resp.Error != "" {
			t.Fatalf("subscribe: %v", resp.Error)
		}
	}
	for i := range keys {
		mem.Handle(Request{Op: OpStore, Series: keys[i], Points: [][2]float64{{2, 0.25}}})
	}
	pushes0 := mFcPushes.Value()
	f.RefreshNow()

	if got := mFcPushes.Value() - pushes0; got != series {
		t.Fatalf("nws_forecast_pushes_total advanced %d, want %d", got, series)
	}
	total := conn.out.Len()
	if limit := (total+4095)/4096 + 1; conn.writes > limit {
		t.Fatalf("%d Write calls for %d bytes, want at most %d", conn.writes, total, limit)
	}
	if len(conn.deadlines) != 2 || conn.deadlines[0].IsZero() || !conn.deadlines[1].IsZero() {
		t.Fatalf("write deadlines set %v, want exactly one arm then one clear", conn.deadlines)
	}

	// Every subscription got exactly one ordinary frame with its forecast.
	r := bufio.NewReader(&conn.out)
	seen := make(map[uint64]bool, series)
	var buf []byte
	for i := 0; i < series; i++ {
		payload, _, err := readFrame(r, &buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		id, resp, err := decodeResponsePayload(payload)
		if err != nil || !resp.OK || resp.Forecast == nil || resp.Forecast.N != 2 {
			t.Fatalf("frame %d: id %d, %+v, %v", i, id, resp, err)
		}
		if id < 1 || id > series || seen[id] {
			t.Fatalf("frame %d: subscription id %d out of range or repeated", i, id)
		}
		seen[id] = true
	}
	if r.Buffered() != 0 || conn.out.Len() != 0 {
		t.Fatal("bytes left after the tick's frames")
	}
}

// TestPushBatchNeverWedgesOnStalledSink is the slow-subscriber regression
// test: with no configured WriteTimeout (the default), a batch into a
// stalled connection must not block its caller forever — the historical
// behavior wedged the refresher, and with it every other subscription on
// the service. A concurrent batch while the first is still draining must
// be dropped whole, immediately.
func TestPushBatchNeverWedgesOnStalledSink(t *testing.T) {
	sink, _ := newStalledSink(t, ServerLimits{}) // WriteTimeout == 0: the buggy configuration

	// The first batch occupies the sink: it blocks on the unread pipe until
	// the push write budget expires and poisons the sink.
	type result struct {
		n   int
		err error
	}
	first := make(chan result, 1)
	batch := pushBatchOf(t, 1, 3, pushResult())
	go func() {
		n, err := sink.PushBatch(batch)
		first <- result{n, err}
	}()

	// Give the first batch time to enter the blocking write, then push
	// again: it must return promptly, delivering nothing and not failing.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if n, err := sink.PushBatch(pushBatchOf(t, 10, 5, pushResult())); n != 0 || err != nil {
		t.Fatalf("concurrent batch = %d, %v; want 0 delivered, nil", n, err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("concurrent batch blocked %v behind a stalled sink", d)
	}

	// The first batch must come back too — bounded by pushWriteBudget, not
	// wedged forever — with a timeout error that poisons the sink.
	select {
	case r := <-first:
		if r.err == nil || r.n != 0 {
			t.Fatalf("stalled batch = %d, %v; want 0 delivered and an error", r.n, r.err)
		}
	case <-time.After(2 * pushWriteBudget):
		t.Fatal("stalled batch still wedged after twice the write budget")
	}
	if !sink.poisoned() {
		t.Fatal("sink not poisoned after push write budget expired")
	}

	// Later batches fail fast on the poisoned sink.
	if n, err := sink.PushBatch(pushBatchOf(t, 20, 2, pushResult())); n != 0 || err == nil {
		t.Fatalf("batch into poisoned sink = %d, %v; want 0 delivered and an error", n, err)
	}
}

// TestRefreshSurvivesStalledSubscriber checks the service-level
// consequence: one stalled subscriber must not starve a healthy one of its
// pushes in the same tick, the stalled subscriptions stay registered while
// their frames are dropped (teardown happens only once the sink is
// poisoned, and then once), and every frame attempted is counted in exactly
// one of nws_forecast_pushes_total and nws_forecast_pushes_dropped_total.
func TestRefreshSurvivesStalledSubscriber(t *testing.T) {
	const series = 3
	mem := NewMemory(0)
	f := NewForecasterServiceBackend(NewLocalBackend(mem), 0)
	keys := make([]string, series)
	store := func(tick float64) {
		for _, k := range keys {
			mem.Handle(Request{Op: OpStore, Series: k, Points: [][2]float64{{tick, 0.5}}})
		}
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("h%d/cpu/m", i)
	}
	store(1)

	stalled, _ := newStalledSink(t, ServerLimits{})
	healthy, healthyPeer := newStalledSink(t, ServerLimits{})
	// Drain the healthy peer so its pushes always land.
	received := make(chan int, 1024)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := healthyPeer.Read(buf)
			if n > 0 {
				received <- n
			}
			if err != nil {
				return
			}
		}
	}()

	for id, sink := range map[uint64]*binSink{100: stalled, 200: healthy} {
		for i, k := range keys {
			if resp := f.Subscribe(Request{Op: OpSubscribe, Series: k}, id+uint64(i), sink); resp.Error != "" {
				t.Fatalf("subscribe: %v", resp.Error)
			}
		}
	}
	if n := f.Subscriptions(); n != 2*series {
		t.Fatalf("subscriptions = %d, want %d", n, 2*series)
	}

	// Occupy the stalled sink so the tick's batch to it drops instead of
	// blocking.
	occupied := make(chan struct{})
	occupying := pushBatchOf(t, 1, 1, pushResult())
	go func() {
		_, _ = stalled.PushBatch(occupying) // its timeout is the point, not its result
		close(occupied)
	}()
	time.Sleep(50 * time.Millisecond)

	pushes0, drops0 := mFcPushes.Value(), mFcPushesDropped.Value()
	store(2)
	done := make(chan struct{})
	go func() {
		f.RefreshNow()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("refresh tick wedged behind the stalled subscriber")
	}
	select {
	case <-received:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("healthy subscriber never received its pushes")
	}
	// The tick attempted 2×series frames: the healthy half was delivered,
	// the stalled half dropped and not also counted as pushed.
	if pushed, dropped := mFcPushes.Value()-pushes0, mFcPushesDropped.Value()-drops0; pushed != series || dropped != series {
		t.Fatalf("pushes_total +%d, pushes_dropped_total +%d; want +%d and +%d", pushed, dropped, series, series)
	}
	// The stalled subscriber's frames were dropped, not its subscriptions.
	if n := f.Subscriptions(); n != 2*series {
		t.Fatalf("subscriptions after drop = %d, want %d (drop must not unsubscribe)", n, 2*series)
	}

	// Once the write budget expires the occupying write poisons the sink;
	// the next tick's batch fails fast, is counted as dropped, and tears the
	// stalled connection's subscriptions down in one DropSink.
	select {
	case <-occupied:
	case <-time.After(2 * pushWriteBudget):
		t.Fatal("occupying batch still wedged after twice the write budget")
	}
	pushes0, drops0 = mFcPushes.Value(), mFcPushesDropped.Value()
	store(3)
	f.RefreshNow()
	if pushed, dropped := mFcPushes.Value()-pushes0, mFcPushesDropped.Value()-drops0; pushed != series || dropped != series {
		t.Fatalf("poisoned tick: pushes_total +%d, pushes_dropped_total +%d; want +%d and +%d", pushed, dropped, series, series)
	}
	if n := f.Subscriptions(); n != series {
		t.Fatalf("subscriptions after the sink was poisoned = %d, want %d", n, series)
	}
}
