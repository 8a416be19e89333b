package nwsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrMuxClosed reports a call issued on (or pending in) a MuxConn that was
// closed by Close.
var ErrMuxClosed = errors.New("nwsnet: mux connection closed")

// MuxConn is one binary-codec connection carrying many requests in flight
// at once — the pipelining client of wire protocol v2. Where Client runs in
// lockstep (one request, wait, one response), a MuxConn tags
// every request with an ID, keeps sending, and routes responses back as
// they arrive, so wire throughput is bounded by bandwidth and server
// capacity instead of round-trip latency.
//
// Concurrency: Go and Do are safe from any number of goroutines. Requests
// from a single goroutine reach the server in call order (the server
// executes a connection's requests strictly in arrival order, which is what
// makes pipelined stores on one series safe under the memory server's
// monotonic-frontier dedup); requests racing from different goroutines are
// ordered by an internal lock.
//
// Failure: with one exception, any transport error, decode error, or read
// silence past the timeout fails every pending call with the same error and
// poisons the connection; callers reconnect with DialMux. That keeps the
// failure semantics explicit — a pipeline's worth of calls can never be
// half-retried behind the caller's back. The exception is the idle-server
// cut: when the transport dies cleanly (EOF or reset at a frame boundary)
// before ANY response to the pending window has arrived — the signature of
// a server that idle-closed the connection before reading the burst — the
// MuxConn redials once and replays the window verbatim, same IDs and order,
// so an idle connection's next burst is not poisoned by a shed that
// happened before it was sent. The replay guarantee is as safe as the
// burst itself: the server provably executed none of the window (it
// answers strictly in order, and nothing came back). One redial is allowed
// per window; it re-arms only after a frame arrives on the new transport.
type MuxConn struct {
	addr    string
	timeout time.Duration
	conn    net.Conn

	// Writer side: writeMu serializes frame appends into w; flushing is
	// delegated to a dedicated flusher goroutine woken through flushCh
	// (group commit — Go never issues the write syscall itself, so frames
	// appended while a flush is pending or in progress share the next one.
	// A single pipelining goroutine batches its whole in-flight window per
	// syscall, because the flusher only runs once the issuer blocks).
	writeMu sync.Mutex
	w       *bufio.Writer
	flushCh chan struct{}

	// In-flight calls, oldest first. The server answers a connection's
	// requests strictly in arrival order (docs/PROTOCOL.md §3.5), so a FIFO
	// replaces a pending-ID map: matching a response is one comparison at the
	// head instead of a hash and two map operations per request, and the
	// oldest call (the read-timeout reference) is simply the front. Entries
	// removed out of order (encode failures, or a server answering out of
	// spec) are nil'd in place and skipped. head is the index of the front;
	// the slice is compacted as it drains.
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

	// Redial-and-replay state (guarded by mu): when the last frame on the
	// current transport predates the oldest pending call, none of the
	// pending window has been answered. cut marks a transport that died
	// cleanly while completely idle — the reader parks on wake until the
	// next call, which then redials and replays through the window path
	// instead of poisoning an idle connection.
	lastFrame time.Time
	redialed  bool
	cut       bool
	wake      chan struct{}

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
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
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
		w:           bufio.NewWriterSize(nc, 64<<10),
		flushCh:     make(chan struct{}, 1),
		quit:        make(chan struct{}),
		readerDone:  make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	go m.reader()
	go m.flusher()
	return m, nil
}

// DialMuxTenant is DialMux plus tenant attribution: it sends an OpHello
// naming tenant as the connection's first request and waits for the
// acknowledgement, so every later request lands in that tenant's quota
// bucket (ServerLimits.TenantRate). An empty tenant skips the hello.
func DialMuxTenant(addr, tenant string, timeout time.Duration) (*MuxConn, error) {
	m, err := DialMux(addr, timeout)
	if err != nil {
		return nil, err
	}
	if tenant == "" {
		return m, nil
	}
	if _, err := m.Do(Request{Op: OpHello, Tenant: tenant}); err != nil {
		m.Close()
		return nil, fmt.Errorf("nwsnet: hello to %s: %w", addr, err)
	}
	return m, nil
}

// Addr returns the dialed server address.
func (m *MuxConn) Addr() string { return m.addr }

// InFlight reports how many calls are awaiting responses.
func (m *MuxConn) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.calls[m.head:] {
		if c != nil {
			n++
		}
	}
	return n
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
	if m.cut {
		// The transport died while idle and the reader is parked: do not
		// touch the dead writer — wake the reader, which redials and
		// replays this call (and any racing with it) on the fresh
		// transport, in FIFO order.
		select {
		case m.wake <- struct{}{}:
		default:
		}
		m.mu.Unlock()
		return call
	}
	m.mu.Unlock()

	buf := getEncBuf()
	payload, err := encodeRequestPayload(*buf, id, &call.Req)
	if err != nil {
		putEncBuf(buf)
		if m.forget(id) {
			call.Err = fmt.Errorf("nwsnet: encode for %s: %w", m.addr, err)
			observeCall(req.Op, call.t0, call.Err)
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
	m.writeMu.Unlock()
	*buf = payload
	putEncBuf(buf)
	if werr != nil {
		m.fail(fmt.Errorf("nwsnet: send to %s: %w", m.addr, werr))
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

// Subscribe registers onPush for server-initiated forecast pushes on series
// and issues the subscribe request; the returned call's Wait yields the
// acknowledgement (carrying the current forecast when one is computable).
// onPush runs on the connection's reader goroutine, so it must not block.
// It receives (resp, nil) for every push, and exactly one terminal call
// (resp, err) when the subscription ends without Unsubscribe: a moved push
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

// Unsubscribe stops pushes for series and issues the unsubscribe request.
// The push handler gets no terminal call (the caller asked), and
// unsubscribing a series that was never subscribed is not an error.
func (m *MuxConn) Unsubscribe(series string) *MuxCall {
	m.mu.Lock()
	if id, ok := m.subBySeries[series]; ok {
		delete(m.subBySeries, series)
		delete(m.subs, id)
	}
	m.mu.Unlock()
	return m.Go(Request{Op: OpUnsubscribe, Series: series})
}

// Subscriptions reports how many subscriptions are active on the
// connection.
func (m *MuxConn) Subscriptions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// dropSub removes the push routing for id, reporting the subscription if
// one was registered.
func (m *MuxConn) dropSub(id uint64) *muxSub {
	m.mu.Lock()
	defer m.mu.Unlock()
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
	if sub := m.subs[id]; sub != nil {
		delete(m.subs, id)
		if m.subBySeries[sub.series] == id {
			delete(m.subBySeries, sub.series)
		}
	}
	for i := len(m.calls) - 1; i >= m.head; i-- {
		if c := m.calls[i]; c != nil && c.id == id {
			m.calls[i] = nil
			return true
		}
	}
	return false
}

// take removes and returns the pending call with the given response ID, or
// nil when no such call is in flight. The fast path is one comparison: the
// server answers in request order, so the match is at the front.
func (m *MuxConn) take(id uint64) *MuxCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head < len(m.calls) && m.calls[m.head] == nil {
		m.head++
	}
	if m.head == len(m.calls) {
		m.calls = m.calls[:0]
		m.head = 0
		return nil
	}
	if c := m.calls[m.head]; c.id == id {
		m.calls[m.head] = nil
		m.head++
		if m.head == len(m.calls) {
			m.calls = m.calls[:0]
			m.head = 0
		}
		return c
	}
	// A server answering out of arrival order is out of spec but harmless
	// to tolerate: find the call wherever it is.
	for i := m.head; i < len(m.calls); i++ {
		if c := m.calls[i]; c != nil && c.id == id {
			m.calls[i] = nil
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
	// The conn pointer swaps under writeMu during a redial; close under it.
	m.writeMu.Lock()
	m.conn.Close()
	m.writeMu.Unlock()
	for _, call := range pending {
		if call == nil {
			continue
		}
		call.Err = err
		observeCall(call.Req.Op, call.t0, call.Err)
		call.deliver()
	}
	for _, sub := range subs {
		sub.onPush(Response{}, err)
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
	m.conn.SetReadDeadline(time.Now().Add(m.timeout))
	accept, err := br.ReadByte()
	if err != nil {
		m.fail(fmt.Errorf("nwsnet: negotiate with %s: %w", m.addr, err))
		return
	}
	if accept != wireVersionBinary {
		m.fail(fmt.Errorf("nwsnet: %s accepted wire version %d, not binary (%d)", m.addr, accept, wireVersionBinary))
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
			// A timeout that consumed nothing is fatal only when some call
			// has actually waited out the full timeout — the deadline was
			// armed before those calls were issued, so a young pipeline gets
			// the next lap. A timeout that cut a frame in half is always
			// fatal, because binary framing cannot resynchronize.
			if isTimeout(err) && n == 0 {
				oldest := m.oldestPending()
				if oldest.IsZero() || time.Since(oldest) < m.timeout {
					continue
				}
			} else if n == 0 {
				// A clean cut at a frame boundary. Completely idle (nothing
				// pending, no subscriptions): park until the next call needs
				// a transport. Then — parked or not — if nothing in the
				// pending window has been answered, the server closed before
				// reading it: redial once and replay.
				m.parkOnCut()
				if nbr, ok := m.tryRedial(); ok {
					br = nbr
					continue
				}
			}
			m.fail(fmt.Errorf("nwsnet: receive from %s: %w", m.addr, err))
			return
		}
		m.noteFrame()
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
				m.dropSub(id) // refused: nothing registered server-side
			}
		} else {
			call.Resp = resp
		}
		observeCall(call.Req.Op, call.t0, call.Err)
		call.deliver()
	}
}

// noteFrame records a successful frame receipt on the current transport:
// the redial gate re-arms, and the pending window is marked answered.
func (m *MuxConn) noteFrame() {
	m.mu.Lock()
	m.lastFrame = time.Now()
	m.redialed = false
	m.mu.Unlock()
}

// routeSub resolves a push frame's subscription; terminal removes it.
func (m *MuxConn) routeSub(id uint64, terminal bool) *muxSub {
	if terminal {
		return m.dropSub(id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.subs[id]
}

// parkOnCut handles a clean transport cut with nothing in flight and no
// subscriptions: poisoning would make the connection's very idleness fatal
// (a server idle-timeout reaps quiet transports), and reconnecting eagerly
// would race the same reaper in a dial loop. Instead the reader closes the
// dead transport and parks until the next call arrives; that call is
// appended unsent and the reader replays it through the normal redial
// window. No-op when the cut has in-flight state to deal with.
func (m *MuxConn) parkOnCut() {
	m.mu.Lock()
	pending := false
	for _, c := range m.calls[m.head:] {
		if c != nil {
			pending = true
			break
		}
	}
	if m.err != nil || pending || len(m.subs) > 0 {
		m.mu.Unlock()
		return
	}
	if m.wake == nil {
		m.wake = make(chan struct{}, 1)
	}
	// Drain any stale wake left from a previous burst (extra calls signal
	// into the buffer after the reader is already up). goWith only signals
	// while cut is set, and cut is set under this same lock, so anything
	// in the buffer here predates this park.
	select {
	case <-m.wake:
	default:
	}
	m.cut = true
	wake := m.wake
	m.mu.Unlock()
	m.writeMu.Lock()
	m.conn.Close() // dead transport; release it while parked
	m.writeMu.Unlock()
	select {
	case <-wake:
	case <-m.quit:
	}
}

// tryRedial is the one-shot transparent reconnect: called by the reader on
// a clean transport cut, it checks that the pending window is entirely
// unanswered (the server answers strictly in order, so no frame since the
// oldest pending call means none of the window executed), dials a fresh
// connection, and replays the window verbatim — same IDs, same order. It
// returns the new transport's reader on success. Subscriptions that were
// already acknowledged lived on the dead connection's server state and do
// not survive: they get a terminal push telling the caller to re-subscribe.
// Un-acked subscribes in the window replay and re-register normally.
func (m *MuxConn) tryRedial() (*bufio.Reader, bool) {
	m.writeMu.Lock()
	m.mu.Lock()
	m.cut = false // calls append-and-write normally from here on
	if m.err != nil || m.redialed {
		m.mu.Unlock()
		m.writeMu.Unlock()
		return nil, false
	}
	var window []*MuxCall
	pendingIDs := make(map[uint64]struct{})
	for _, c := range m.calls[m.head:] {
		if c != nil {
			window = append(window, c)
			pendingIDs[c.id] = struct{}{}
		}
	}
	if len(window) == 0 || !m.lastFrame.Before(window[0].t0) {
		m.mu.Unlock()
		m.writeMu.Unlock()
		return nil, false
	}
	m.redialed = true
	var ended []*muxSub
	for id, sub := range m.subs {
		if _, pending := pendingIDs[id]; pending {
			continue
		}
		delete(m.subs, id)
		if m.subBySeries[sub.series] == id {
			delete(m.subBySeries, sub.series)
		}
		ended = append(ended, sub)
	}
	m.mu.Unlock()
	br, ok := m.replayWindow(window)
	m.writeMu.Unlock()
	if len(ended) > 0 {
		err := fmt.Errorf("nwsnet: %s: subscription lost to reconnect; re-subscribe", m.addr)
		for _, sub := range ended {
			sub.onPush(Response{}, err)
		}
	}
	return br, ok
}

// replayWindow dials, negotiates, swaps the transport in, and re-sends the
// window. Callers hold writeMu (no frame can interleave with the replay).
// On failure the caller poisons the connection with the original error.
func (m *MuxConn) replayWindow(window []*MuxCall) (*bufio.Reader, bool) {
	nc, err := net.DialTimeout("tcp", m.addr, m.timeout)
	if err != nil {
		return nil, false
	}
	nc.SetWriteDeadline(time.Now().Add(m.timeout))
	if _, err := nc.Write(wirePreamble[:]); err != nil {
		nc.Close()
		return nil, false
	}
	old := m.conn
	m.conn = nc
	m.w.Reset(nc) // unflushed frames are pending calls; they replay below
	old.Close()
	for _, c := range window {
		buf := getEncBuf()
		payload, perr := encodeRequestPayload(*buf, c.id, &c.Req)
		if perr == nil {
			perr = writeFrame(m.w, payload)
			*buf = payload
		}
		putEncBuf(buf)
		if perr != nil {
			return nil, false
		}
	}
	if m.w.Flush() != nil {
		return nil, false
	}
	nc.SetWriteDeadline(time.Time{})
	// The server buffers its accept byte in front of the first response
	// (negotiation costs zero round trips), so it can be read only after
	// the window is on the wire — waiting for it before sending would
	// deadlock against a server waiting out its idle deadline for a frame.
	nc.SetReadDeadline(time.Now().Add(m.timeout))
	br := bufio.NewReaderSize(nc, 256<<10)
	accept, err := br.ReadByte()
	if err != nil || accept != wireVersionBinary {
		return nil, false
	}
	nc.SetReadDeadline(time.Time{})
	mMuxRedials.Inc()
	return br, true
}
