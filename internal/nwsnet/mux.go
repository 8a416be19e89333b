package nwsnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nwscpu/internal/resilience"
)

// ErrMuxClosed reports a call issued on (or pending in) a MuxConn that was
// closed by Close.
var ErrMuxClosed = errors.New("nwsnet: mux connection closed")

// MuxConn is one binary-codec connection carrying many requests in flight
// at once — the client connection of wire protocol v2. It tags every request
// with an ID, keeps sending, and routes responses back as they arrive, so
// wire throughput is bounded by bandwidth and server capacity instead of
// round-trip latency. Client pools MuxConns and runs one call at a time on
// each.
//
// Concurrency: Go and Do are safe from any number of goroutines. Requests
// from a single goroutine reach the server in call order (the server
// executes a connection's requests strictly in arrival order, which is what
// makes pipelined stores on one series safe under the memory server's
// monotonic-frontier dedup); requests racing from different goroutines are
// ordered by an internal lock.
//
// Failure: any transport error, decode error, connection-level busy shed, or
// read silence past the timeout fails every pending call with the same error
// and poisons the connection — a server idle-closing a quiet connection
// included, which also ends every subscription on it. Callers reconnect with
// DialMux; Client does so for the connections it pools (it never parks a
// dead one, and its retry dials fresh). That keeps the failure semantics
// explicit: a pipeline's worth of calls is never half-retried behind the
// caller's back.
type MuxConn struct {
	addr    string
	timeout time.Duration
	conn    net.Conn
	// pooled marks a connection a Client owns: Client counts its calls, once
	// per logical call, and runs one at a time on it. parked marks one Client
	// has put back at least once; only the goroutine holding it checked out
	// touches it.
	pooled, parked bool

	// Writer side: writeMu serializes frame appends into w; flushing is
	// delegated to a dedicated flusher goroutine woken through flushCh
	// (group commit — Go never issues the write syscall itself, so frames
	// appended while a flush is pending or in progress share the next one.
	// A single pipelining goroutine batches its whole in-flight window per
	// syscall, because the flusher only runs once the issuer blocks). A
	// pooled connection has nothing to group, so Go flushes it directly and
	// no flusher runs.
	writeMu sync.Mutex
	w       *bufio.Writer
	flushCh chan struct{}

	// In-flight calls, oldest first. The server answers a connection's
	// requests strictly in arrival order (docs/PROTOCOL.md §3.5), so a FIFO
	// replaces a pending-ID map: matching a response is one comparison at the
	// head instead of a hash and two map operations per request, and the
	// oldest call (the read-timeout reference) is simply the front. Entries
	// removed out of order (encode failures, or two callers whose frames
	// reached the wire in the other order) are nil'd in place and skipped.
	// head is the index of the front; the slice is compacted as it drains.
	mu     sync.Mutex
	calls  []*MuxCall
	head   int
	nextID uint64
	err    error
	quit   chan struct{} // closed by the first fail; stops the flusher

	// Subscription routing (guarded by mu): server pushes carry the
	// subscription's original request ID, which the FIFO no longer holds
	// once the acknowledgement drained it, so pushes route through this map.
	subs        map[uint64]*muxSub
	subBySeries map[string]uint64

	readerDone  chan struct{}
	flusherDone chan struct{}
}

// muxSub is one client-side subscription: the handler that receives the
// series' push frames.
type muxSub struct {
	series string
	onPush func(Response, error)
}

// MuxCall is one in-flight request on a MuxConn. Wait blocks until the call
// completes with either Resp or Err set.
type MuxCall struct {
	Req  Request
	Resp Response
	Err  error

	id   uint64
	t0   time.Time
	done sync.WaitGroup
}

// deliver completes the call. Every completion site first removes the call
// from the connection's FIFO under mu, so it runs exactly once per call.
func (c *MuxCall) deliver() { c.done.Done() }

// Wait blocks until the call completes and returns its outcome. It may be
// called any number of times, from any goroutine.
func (c *MuxCall) Wait() (Response, error) {
	c.done.Wait()
	return c.Resp, c.Err
}

// DialMux connects to addr and negotiates the binary codec. timeout bounds
// the dial and, after it, how long the connection may go without receiving
// anything while responses are pending (0 selects 5 s).
func DialMux(addr string, timeout time.Duration) (*MuxConn, error) {
	return DialMuxTenant(addr, "", timeout)
}

// DialMuxTenant is DialMux plus tenant attribution: it sends an OpHello
// naming tenant as the connection's first request and waits for the
// acknowledgement, so every later request lands in that tenant's quota
// bucket (ServerLimits.TenantRate). An empty tenant skips the hello.
func DialMuxTenant(addr, tenant string, timeout time.Duration) (*MuxConn, error) {
	return dialMux(context.Background(), addr, tenant, timeout, false)
}

// dialMux is DialMuxTenant with the dial and the hello bounded by ctx too,
// and pooled set on the connection before its first request.
func dialMux(ctx context.Context, addr, tenant string, timeout time.Duration, pooled bool) (*MuxConn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nwsnet: dial %s: %w", addr, err)
	}
	nc.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := nc.Write(wirePreamble[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("nwsnet: negotiate with %s: %w", addr, err)
	}
	nc.SetWriteDeadline(time.Time{})
	m := &MuxConn{
		addr:        addr,
		timeout:     timeout,
		conn:        nc,
		pooled:      pooled,
		w:           bufio.NewWriterSize(nc, 64<<10),
		quit:        make(chan struct{}),
		readerDone:  make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	go m.reader()
	if pooled {
		close(m.flusherDone)
	} else {
		m.flushCh = make(chan struct{}, 1)
		go m.flusher()
	}
	if tenant == "" {
		return m, nil
	}
	if _, err := m.doCtx(ctx, Request{Op: OpHello, Tenant: tenant}); err != nil {
		m.Close()
		return nil, fmt.Errorf("nwsnet: hello to %s: %w", addr, err)
	}
	return m, nil
}

// alive reports whether the connection is still usable: nothing has
// poisoned it yet.
func (m *MuxConn) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == nil
}

// Go sends req without waiting and returns the in-flight call; wait on
// call.Wait. The returned call may already be complete (with
// Err set) if the connection is poisoned or the request unencodable.
func (m *MuxConn) Go(req Request) *MuxCall {
	return m.goWith(req, nil)
}

// goWith is Go with an optional hook run under mu right after the request
// ID is allocated — the subscribe path registers its push routing there, so
// no acknowledgement (and hence no push) can arrive unrouted.
func (m *MuxConn) goWith(req Request, onID func(id uint64)) *MuxCall {
	call := &MuxCall{Req: req, t0: time.Now()}
	call.done.Add(1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		call.Err = err
		call.deliver()
		return call
	}
	m.nextID++
	id := m.nextID
	call.id = id
	if onID != nil {
		onID(id)
	}
	// Compact the drained prefix before it can grow without bound under a
	// long-lived pipeline.
	if m.head > 1024 {
		m.calls = m.calls[:copy(m.calls, m.calls[m.head:])]
		m.head = 0
	}
	m.calls = append(m.calls, call)
	m.mu.Unlock()

	buf := getEncBuf()
	payload, err := encodeRequestPayload(*buf, id, &call.Req)
	if err != nil {
		putEncBuf(buf)
		if m.forget(id) {
			call.Err = resilience.Permanent(fmt.Errorf("nwsnet: encode for %s: %w", m.addr, err))
			m.observe(call)
			call.deliver()
		}
		return call
	}
	m.writeMu.Lock()
	// Arm the write deadline once per flush batch (the buffer is empty
	// exactly when a batch starts); it bounds a stalled server without a
	// deadline syscall per request.
	if m.w.Buffered() == 0 {
		m.conn.SetWriteDeadline(time.Now().Add(m.timeout))
	}
	werr := writeFrame(m.w, payload)
	if werr == nil && m.pooled {
		werr = m.w.Flush() // nothing to group: save the flusher hand-off
	}
	m.writeMu.Unlock()
	*buf = payload
	putEncBuf(buf)
	if werr != nil {
		m.fail(fmt.Errorf("nwsnet: send to %s: %w", m.addr, werr))
		return call
	}
	if m.pooled {
		// The only call in flight: an unanswered one fails one timeout after
		// it was sent, not at the end of the reader's next deadline lap.
		m.conn.SetReadDeadline(call.t0.Add(m.timeout))
		return call
	}
	// Wake the flusher; if a wakeup is already queued the pending flush
	// covers this frame too (group commit).
	select {
	case m.flushCh <- struct{}{}:
	default:
	}
	return call
}

// flusher issues the write syscalls for every frame Go appends. Keeping the
// flush off the caller's goroutine is what makes the group commit work: a
// pipelining caller appends its whole window before the flusher is
// scheduled, so the window ships in one syscall instead of one per frame.
func (m *MuxConn) flusher() {
	defer close(m.flusherDone)
	for {
		select {
		case <-m.quit:
			return
		case <-m.flushCh:
		}
		m.writeMu.Lock()
		var werr error
		if m.w.Buffered() > 0 {
			m.conn.SetWriteDeadline(time.Now().Add(m.timeout))
			werr = m.w.Flush()
		}
		m.writeMu.Unlock()
		if werr != nil {
			m.fail(fmt.Errorf("nwsnet: send to %s: %w", m.addr, werr))
			return
		}
	}
}

// Do sends req and waits for its response — Go plus Wait.
func (m *MuxConn) Do(req Request) (Response, error) {
	return m.Go(req).Wait()
}

// doCtx is Do bounded by ctx. A context that ends first poisons the
// connection, which completes the call at once with an error wrapping the
// context's. The hook is registered only for a context that can end, so a
// context-free caller pays nothing for it.
func (m *MuxConn) doCtx(ctx context.Context, req Request) (Response, error) {
	if ctx.Done() == nil {
		return m.Do(req)
	}
	poison := func() { m.fail(fmt.Errorf("nwsnet: %s: %w", m.addr, ctx.Err())) }
	stop := context.AfterFunc(ctx, poison)
	resp, err := m.Do(req)
	if !stop() {
		// The context ended as the call completed and the hook is already
		// running: poison here too, so the connection is dead by the time
		// the caller decides whether to reuse it.
		poison()
	}
	return resp, err
}

// Subscribe registers onPush for server-initiated forecast pushes on series
// and issues the subscribe request; the returned call's Wait yields the
// acknowledgement (carrying the current forecast when one is computable).
// onPush runs on the connection's reader goroutine, so it must not block.
// It receives (resp, nil) for every push, and exactly one terminal call
// (resp, err) when the subscription ends: a moved push
// during a cluster rebalance (err wraps *MovedError and resp carries the
// authoritative view — redial the new owner), a lost transport, or Close.
// A connection holds at most one subscription per series; re-subscribing
// replaces the handler.
func (m *MuxConn) Subscribe(series string, onPush func(Response, error)) *MuxCall {
	if onPush == nil {
		onPush = func(Response, error) {}
	}
	return m.goWith(Request{Op: OpSubscribe, Series: series}, func(id uint64) {
		if m.subs == nil {
			m.subs = make(map[uint64]*muxSub)
			m.subBySeries = make(map[string]uint64)
		}
		if old, ok := m.subBySeries[series]; ok {
			delete(m.subs, old)
		}
		m.subs[id] = &muxSub{series: series, onPush: onPush}
		m.subBySeries[series] = id
	})
}

// dropSubLocked removes the push routing for id, reporting the subscription
// if one was registered. Callers hold mu.
func (m *MuxConn) dropSubLocked(id uint64) *muxSub {
	sub := m.subs[id]
	if sub != nil {
		delete(m.subs, id)
		if m.subBySeries[sub.series] == id {
			delete(m.subBySeries, sub.series)
		}
	}
	return sub
}

// oldestPending returns the issue time of the longest-waiting pending call,
// or the zero time when nothing is pending. Calls are issued in t0 order, so
// it is the front of the FIFO.
func (m *MuxConn) oldestPending() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.calls[m.head:] {
		if c != nil {
			return c.t0
		}
	}
	return time.Time{}
}

// forget drops a pending call that never made it onto the wire, reporting
// whether it was still pending (false means a concurrent fail completed it).
// Any push routing registered for the ID goes with it.
func (m *MuxConn) forget(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropSubLocked(id)
	for i := len(m.calls) - 1; i >= m.head; i-- {
		if c := m.calls[i]; c != nil && c.id == id {
			m.calls[i] = nil
			return true
		}
	}
	return false
}

// take removes and returns the pending call with the given response ID, or
// nil when no such call is in flight. The server answers in arrival order,
// so the match is almost always the front; a frame whose write lost a race
// to a later-queued one is answered early and found further back.
func (m *MuxConn) take(id uint64) *MuxCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := m.head; i < len(m.calls); i++ {
		if c := m.calls[i]; c != nil && c.id == id {
			m.calls[i] = nil
			for m.head < len(m.calls) && m.calls[m.head] == nil {
				m.head++
			}
			if m.head == len(m.calls) {
				m.calls, m.head = m.calls[:0], 0
			}
			return c
		}
	}
	return nil
}

// fail poisons the connection: every pending call (and every later Go)
// completes with err, and every subscription gets its terminal push.
// Idempotent — the first failure wins.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.quit)
	} else {
		err = m.err
	}
	pending := m.calls[m.head:]
	m.calls = nil
	m.head = 0
	subs := m.subs
	m.subs = nil
	m.subBySeries = nil
	m.mu.Unlock()
	m.conn.Close()
	for _, call := range pending {
		if call == nil {
			continue
		}
		call.Err = err
		m.observe(call)
		call.deliver()
	}
	for _, sub := range subs {
		sub.onPush(Response{}, err)
	}
}

// observe counts a completed call in the client metrics, unless a Client
// owns the connection and counts the call itself.
func (m *MuxConn) observe(call *MuxCall) {
	if !m.pooled {
		observeCall(call.Req.Op, call.t0, call.Err)
	}
}

// Close poisons the connection and releases it. Pending calls complete with
// ErrMuxClosed.
func (m *MuxConn) Close() error {
	m.fail(ErrMuxClosed)
	<-m.readerDone
	<-m.flusherDone
	return nil
}

// reader consumes the accept byte and then routes response frames to their
// pending calls until the connection dies.
func (m *MuxConn) reader() {
	defer close(m.readerDone)
	br := bufio.NewReaderSize(m.conn, 256<<10)
	if err := m.readAccept(br); err != nil {
		m.fail(err)
		return
	}
	var buf []byte
	for {
		// Re-arm the read deadline only when the next frame has to touch the
		// socket; frames already sitting in the read buffer (the common case
		// under pipelining — responses arrive in flush batches) decode
		// without a deadline syscall.
		if br.Buffered() == 0 {
			m.conn.SetReadDeadline(time.Now().Add(m.timeout))
		}
		payload, n, err := readFrame(br, &buf)
		if err != nil {
			if m.keepWaiting(err, n) {
				continue
			}
			m.fail(fmt.Errorf("nwsnet: receive from %s: %w", m.addr, err))
			return
		}
		id, resp, err := decodeResponsePayload(payload)
		if err != nil {
			m.fail(fmt.Errorf("nwsnet: receive from %s: %w", m.addr, err))
			return
		}
		if id == 0 {
			// Connection-level response: the server shed this connection
			// without reading anything; it answers every pending call.
			if resp.Code == CodeBusy {
				m.fail(fmt.Errorf("nwsnet: %s: %s: %w", m.addr, resp.Error, errBusySentinel))
				return
			}
			continue // unknown connection-level frame: ignore
		}
		rerr := respError(m.addr, resp)
		call := m.take(id)
		if call == nil {
			// Not a pending call: a push frame for a subscription (or a
			// duplicate/unsolicited ID, which drops here too). An error push
			// is terminal — a moved push during a rebalance means the server
			// already discarded the subscription.
			if sub := m.routeSub(id, rerr != nil); sub != nil {
				sub.onPush(resp, rerr)
			}
			continue
		}
		if rerr != nil {
			call.Err = rerr
			if call.Req.Op == OpSubscribe {
				m.routeSub(id, true) // refused: nothing registered server-side
			}
		} else {
			call.Resp = resp
		}
		m.observe(call)
		call.deliver()
	}
}

// readAccept reads the accept byte that the server sends in front of its
// first response. A late accept byte is a late first response, so it waits
// under the frame loop's rule and a timeout fails as a receive. A connection
// that closes first, or accepts another wire version, refused the handshake.
func (m *MuxConn) readAccept(br *bufio.Reader) error {
	for {
		m.conn.SetReadDeadline(time.Now().Add(m.timeout))
		accept, err := br.ReadByte()
		switch {
		case err == nil && accept == wireVersionBinary:
			return nil
		case err == nil:
			return resilience.Permanent(fmt.Errorf(
				"nwsnet: %s accepted wire version %d, not binary (%d)", m.addr, accept, wireVersionBinary))
		case m.keepWaiting(err, 0):
		case isTimeout(err):
			return fmt.Errorf("nwsnet: receive from %s: %w", m.addr, err)
		default:
			return fmt.Errorf("nwsnet: negotiate with %s: %w", m.addr, err)
		}
	}
}

// keepWaiting reports whether a read that failed after consuming n bytes
// leaves the connection alive. A timeout that consumed nothing is fatal only
// when some call has actually waited out the full timeout: the deadline was
// armed before those calls were issued, so a young pipeline gets the next
// lap. A timeout that cut a frame in half is always fatal, because binary
// framing cannot resynchronize.
func (m *MuxConn) keepWaiting(err error, n int) bool {
	if !isTimeout(err) || n > 0 {
		return false
	}
	oldest := m.oldestPending()
	return oldest.IsZero() || time.Since(oldest) < m.timeout
}

// routeSub resolves a push frame's subscription; terminal removes it.
func (m *MuxConn) routeSub(id uint64, terminal bool) *muxSub {
	m.mu.Lock()
	defer m.mu.Unlock()
	if terminal {
		return m.dropSubLocked(id)
	}
	return m.subs[id]
}
