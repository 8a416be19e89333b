package nwsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one protocol request.
type Handler interface {
	Handle(req Request) Response
}

// Shed reasons, the label values of nws_server_shed_total.
const (
	shedConns  = "connections" // accepted past MaxConns
	shedQueue  = "queue"       // no in-flight slot within QueueWait
	shedIdle   = "idle"        // connection silent past IdleTimeout
	shedWrite  = "write"       // response write blocked past WriteTimeout
	shedTenant = "tenant"      // request over its tenant's token-bucket quota
)

// codecBinary labels nws_wire_connections_total: wire protocol v2, the one
// codec a server speaks.
const codecBinary = "binary"

// refusal is the one line a server writes to a peer that does not open with
// the v2 preamble — a v1 JSON line, another version, bad magic — before it
// closes the connection.
const refusal = "nwsnet: this server speaks only wire protocol v2 (docs/PROTOCOL.md); commit a7afa36 was the last to serve v1 JSON lines\n"

// ServerLimits bounds what a Server will take on before it starts shedding
// load. The zero value imposes no limits — exactly the pre-limits behavior.
// Shedding is always explicit on the wire: a shed request or connection is
// answered with a response carrying CodeBusy, which clients classify as
// retryable ("overloaded, back off"), never silently dropped. Every shed is
// counted in nws_server_shed_total by reason; see docs/ARCHITECTURE.md,
// "Overload behavior".
type ServerLimits struct {
	// MaxConns caps concurrent connections. A connection accepted past the
	// cap is immediately answered with a busy response and closed (reason
	// "connections"). 0 = unlimited.
	MaxConns int
	// MaxInFlight caps requests executing in handlers at once. A request
	// that cannot get a slot within QueueWait is answered with a busy
	// response on its own connection (reason "queue"); the connection
	// stays open for retries. 0 = unlimited.
	MaxInFlight int
	// QueueWait bounds how long a request may wait for an in-flight slot
	// before being shed — the knee between queueing and collapsing. Only
	// meaningful with MaxInFlight > 0 (then 0 selects 100 ms). Shedding
	// answers within this budget instead of letting the client time out.
	QueueWait time.Duration
	// IdleTimeout disconnects a connection whose next request has not
	// arrived this long after the server was ready to read it (reason
	// "idle") — the defense against clients that connect and never send,
	// which would otherwise pin a goroutine forever. Time spent executing
	// the previous request does not count. 0 = no idle deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (reason "write") — the
	// defense against stalled readers that stop draining their socket
	// while the server blocks mid-write. 0 = no write deadline.
	WriteTimeout time.Duration
	// TenantRate enables per-tenant token-bucket quotas: each tenant (the
	// ID negotiated by OpHello; connections that never send one share the
	// anonymous "" tenant) may issue this many requests per second
	// sustained. A request over quota is answered with the retryable busy
	// code (reason "tenant") and counted in nws_tenant_throttled_total, so
	// one hot tenant backs off instead of starving the rest. 0 = no
	// quotas.
	TenantRate float64
	// TenantBurst is each tenant bucket's capacity — how far a tenant may
	// burst above the sustained rate. 0 selects max(1, TenantRate).
	TenantBurst int
}

// Server accepts wire protocol v2 connections (docs/PROTOCOL.md) and
// dispatches their requests to a Handler. A connection may carry any number
// of pipelined requests; a peer that does not open with the v2 preamble is
// refused.
type Server struct {
	handler  Handler
	logger   *log.Logger
	limits   ServerLimits
	inflight chan struct{} // in-flight request slots; nil when unlimited
	clk      clock

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   atomic.Bool // set under mu; loaded without it by serve loops
	wg       sync.WaitGroup
	// Tenant quota state, under its own lock so the per-request quota
	// check never contends with connection bookkeeping.
	tenantMu       sync.Mutex
	tenants        map[string]*tokenBucket
	tenantOverflow *tokenBucket
}

// NewServer wraps handler with no limits. logger may be nil to disable
// logging.
func NewServer(handler Handler, logger *log.Logger) *Server {
	return NewServerLimits(handler, logger, ServerLimits{})
}

// NewServerLimits wraps handler with overload protection per limits.
func NewServerLimits(handler Handler, logger *log.Logger, limits ServerLimits) *Server {
	if limits.MaxInFlight > 0 && limits.QueueWait <= 0 {
		limits.QueueWait = 100 * time.Millisecond
	}
	s := &Server{
		handler: handler,
		logger:  logger,
		limits:  limits,
		clk:     wallClock{},
		conns:   make(map[net.Conn]struct{}),
	}
	if limits.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, limits.MaxInFlight)
	}
	return s
}

// Listen binds addr ("host:port"; ":0" for an ephemeral port) and starts
// serving in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		l.Close()
		return "", errors.New("nwsnet: server already closed")
	}
	s.listener = l
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.limits.MaxConns > 0 && len(s.conns) >= s.limits.MaxConns {
			s.mu.Unlock()
			mServerShed.With(shedConns).Inc()
			s.wg.Add(1)
			go s.shedConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// shedConn answers a connection accepted past MaxConns with a retryable
// busy response and closes it: the accept byte, then a busy frame tagged
// with request ID 0, which is reserved for exactly this — a
// connection-level response to requests the server never read.
func (s *Server) shedConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	sink := &binSink{conn: conn, w: bufio.NewWriter(conn)}
	sink.w.WriteByte(wireVersionBinary)
	busy := busyResp("server at connection capacity; retry")
	if sink.send(0, &busy, true) == nil {
		lingerClose(conn)
	}
}

// lingerClose half-closes conn after its last answer and drains, for at
// most a second, what the peer already sent, so unread input does not turn
// the close into a reset that destroys the answer before the peer reads it.
func lingerClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	io.Copy(io.Discard, conn)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	mServerConnsTotal.Inc()
	mServerConnsActive.Inc()
	defer func() {
		mServerConnsActive.Dec()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	reader := bufio.NewReaderSize(conn, 64<<10)
	writer := bufio.NewWriter(conn)
	if s.negotiate(conn, reader, writer) {
		mWireConns.With(codecBinary).Inc()
		s.serveBinary(conn, reader, writer)
	}
}

// negotiate reads the v2 preamble, under the same idle deadline a request
// read would wait under, and answers with the accept byte. It reports
// whether the connection proceeds. Any other opening — a v1 JSON line, a
// preamble asking for a version below 2, bad magic — is a decode error: the
// peer gets the refusal line and the connection closes.
func (s *Server) negotiate(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer) bool {
	if s.limits.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.limits.IdleTimeout))
	}
	// The preamble's leading NUL begins no text line, so one byte tells a
	// v2 peer from any other without waiting for five.
	first, err := reader.Peek(1)
	if err != nil {
		if err != io.EOF && !s.closed.Load() {
			if isTimeout(err) {
				mServerShed.With(shedIdle).Inc()
			} else if s.logger != nil {
				s.logger.Printf("nwsnet: read: %v", err)
			}
		}
		return false
	}
	if first[0] == wirePreamble[0] {
		var pre [wirePreambleLen]byte
		if _, err := io.ReadFull(reader, pre[:]); err != nil {
			mWireDecodeErrors.Inc()
			return false
		}
		if pre[1] == 'N' && pre[2] == 'W' && pre[3] == 'S' && pre[4] >= wireVersionBinary {
			// The accept byte is buffered, not flushed: it rides in front of
			// the first response, so negotiation costs a pipelining client
			// zero round trips.
			writer.WriteByte(wireVersionBinary)
			return true
		}
	}
	mWireDecodeErrors.Inc()
	if s.logger != nil {
		s.logger.Printf("nwsnet: refused a peer that did not open with the v2 preamble (% x)", first)
	}
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	writer.WriteString(refusal)
	if writer.Flush() == nil {
		lingerClose(conn)
	}
	return false
}

// binSink is the serialized write half of one binary connection: every
// outbound frame — ordinary responses from the serve loop and server-initiated
// pushes from a SubscriptionHandler — goes through its lock, so pushes
// interleave with responses at frame granularity and never corrupt the
// stream. It implements PushSink.
type binSink struct {
	conn   net.Conn
	limits ServerLimits
	subs   atomic.Int64 // active subscriptions on this connection
	// severed is set by cut, which cannot wait for the write lock.
	severed atomic.Bool

	mu  sync.Mutex
	w   *bufio.Writer
	err error // first write failure; poisons all later writes
}

func (k *binSink) addSubs(delta int64) { k.subs.Add(delta) }

// poisoned reports whether a write failure, a cut or teardown has killed the
// sink; the serve loop checks it before reading a timeout as idleness.
func (k *binSink) poisoned() bool {
	if k.severed.Load() {
		return true
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err != nil
}

// close flushes what the serve loop left buffered — the answers to a burst
// cut short by a frame it could not decode — then poisons the sink so no
// further push lands and no read timeout is excused; the serve loop calls it
// on every way out. The flush's error is dropped: the connection closes
// either way.
func (k *binSink) close() {
	k.mu.Lock()
	if k.err == nil {
		k.w.Flush()
		k.err = net.ErrClosed
	}
	k.mu.Unlock()
}

// cut implements sinkCutter: it disconnects the subscriber without touching
// the write lock — the holder may be a write stalled on this very peer — by
// expiring the read deadline, as a failed write does, so the serve loop exits
// and the client's subscriptions end with a transport error.
func (k *binSink) cut() {
	k.severed.Store(true)
	k.conn.SetReadDeadline(time.Now().Add(-time.Second))
}

// failLocked poisons the sink with a write failure and expires the
// connection's read deadline, so the serve loop tears the connection down
// promptly; callers hold k.mu.
func (k *binSink) failLocked(err error) {
	if isTimeout(err) {
		mServerShed.With(shedWrite).Inc()
	}
	k.err = err
	k.conn.SetReadDeadline(time.Now().Add(-time.Second))
}

// send writes resp as one response frame tagged with id, and optionally
// flushes.
func (k *binSink) send(id uint64, resp *Response, flush bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sendLocked(id, resp, flush)
}

// sendLocked is send for callers that hold k.mu: the one place a response
// frame is encoded and written.
func (k *binSink) sendLocked(id uint64, resp *Response, flush bool) error {
	if k.err != nil {
		return k.err
	}
	resp.OK = resp.Error == ""
	buf := getEncBuf()
	defer putEncBuf(buf)
	// The frame header is reserved in front of the payload, so the writer
	// gets one contiguous frame: a frame larger than its buffer goes out in
	// one write(2) instead of a buffer's worth and then the rest.
	frame, err := encodeResponsePayload(append(*buf, 0, 0, 0, 0), id, resp)
	if err != nil {
		return err
	}
	*buf = frame
	size := len(frame) - 4
	// Arm the write deadline once per flush batch (the buffer is empty
	// exactly when a batch starts): it still bounds how long a stalled
	// peer can pin the connection, without a deadline call per frame.
	if k.limits.WriteTimeout > 0 && k.w.Buffered() == 0 {
		k.conn.SetWriteDeadline(time.Now().Add(k.limits.WriteTimeout))
	}
	if size > maxFrameBytes {
		err = fmt.Errorf("nwsnet: frame payload %d bytes exceeds %d", size, maxFrameBytes)
	} else {
		binary.BigEndian.PutUint32(frame, uint32(size))
		_, err = k.w.Write(frame)
	}
	if err == nil {
		mWireFramesOut.Inc()
		mWireBytesOut.Add(uint64(size))
		if flush {
			err = k.w.Flush()
		}
	}
	if err != nil {
		k.failLocked(err)
	}
	return err
}

// pushWriteBudget bounds how long one push batch may occupy a socket whose
// server has no configured WriteTimeout. The response path may block
// indefinitely there — the client is waiting for its answer — but a push
// blocking means the subscriber stopped draining, and the refresher behind
// the push serves every other subscriber too.
const pushWriteBudget = time.Second

// PushBatch implements PushSink: one refresh tick's frames for this
// connection go out under one lock, one write deadline and one flush,
// streamed through the connection's own buffered writer. Each frame is byte
// for byte what encodeResponsePayload + writeFrame produce for its item.
//
// Slow-subscriber protection, at batch granularity: if the sink's write lock
// is held — the previous write is still draining into a peer that stopped
// reading — the whole batch is dropped instead of queueing behind it; the
// subscriptions stay live and the forecaster's next refresh pass sends the
// dropped forecasts again. Otherwise the batch runs under a write deadline (WriteTimeout,
// else pushWriteBudget), so a dead socket poisons the sink rather than
// wedging the refresher; the deadline is cleared afterwards so it cannot
// time out a later response.
func (k *binSink) PushBatch(items []PushItem) (int, error) {
	if !k.mu.TryLock() {
		return 0, nil
	}
	defer k.mu.Unlock()
	if k.err != nil {
		return 0, k.err
	}
	// An item no frame can carry fails the batch before a byte of it is
	// written: the connection stays usable, as after any encode error.
	var hdr [4 + binary.MaxVarintLen64]byte
	for _, it := range items {
		if size := len(putUvarint(hdr[:4], it.ID)) - 4 + len(it.Body); size > maxFrameBytes {
			return 0, fmt.Errorf("nwsnet: frame payload %d bytes exceeds %d", size, maxFrameBytes)
		}
	}
	budget := k.limits.WriteTimeout
	if budget <= 0 {
		budget = pushWriteBudget
	}
	k.conn.SetWriteDeadline(time.Now().Add(budget))
	var err error
	sent := 0
	for _, it := range items {
		h := putUvarint(hdr[:4], it.ID)
		size := len(h) - 4 + len(it.Body)
		binary.BigEndian.PutUint32(h, uint32(size))
		if _, err = k.w.Write(h); err != nil {
			break
		}
		if _, err = k.w.Write(it.Body); err != nil {
			break
		}
		sent += size
	}
	if err == nil {
		err = k.w.Flush()
	}
	if err != nil {
		k.failLocked(err)
		return 0, err
	}
	k.conn.SetWriteDeadline(time.Time{})
	mWireFramesOut.Add(uint64(len(items)))
	mWireBytesOut.Add(uint64(sent))
	return len(items), nil
}

// subscribe runs the registration and writes its acknowledgement under the
// sink lock, so a push for the new subscription — which needs the same lock
// — cannot overtake the ack on the wire.
func (k *binSink) subscribe(h SubscriptionHandler, req *Request, id uint64, flush bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	resp := h.Subscribe(*req, id, k)
	return k.sendLocked(id, &resp, flush)
}

// bufferedFrames counts the whole frames r already holds, read from the
// socket but not yet served.
func bufferedFrames(r *bufio.Reader) int {
	b, _ := r.Peek(r.Buffered())
	n := 0
	for len(b) >= 4 {
		size := uint64(binary.BigEndian.Uint32(b))
		if size > uint64(len(b)-4) {
			break
		}
		b = b[4+size:]
		n++
	}
	return n
}

// serveBinary is the v2 serve loop, on the connection's own goroutine: it
// reads, decodes and executes each request and writes its response tagged
// with the request ID, strictly in arrival order (order matters: the memory
// server's idempotent-store dedup relies on a connection's stores applying
// in the sequence they were sent). The requests a pipelining client sends
// meanwhile wait in the reader's buffer and then in the socket, which
// backpressures the client through TCP. Responses are flushed once no whole
// request is left buffered, so a burst's answers share one syscall. All
// writes go through a binSink so subscription pushes (server-initiated
// frames from a SubscriptionHandler) serialize cleanly with responses.
func (s *Server) serveBinary(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer) {
	sink := &binSink{conn: conn, limits: s.limits, w: writer}
	defer sink.close()
	subHandler, _ := s.handler.(SubscriptionHandler)
	// Drop this connection's subscriptions first (LIFO), so the handler
	// stops pushing to it before the sink closes.
	if subHandler != nil {
		defer subHandler.DropSink(sink)
	}
	var (
		buf    []byte
		dec    connDecoder
		tenant string
		ahead  int // whole requests buffered behind the one being served
	)
	for {
		if ahead == 0 {
			// The next read may wait on the socket, so only now is the
			// connection possibly idle. A connection with active
			// subscriptions is never idle-disconnected: it is quiet because
			// it is listening, not because it is gone.
			if s.limits.IdleTimeout > 0 {
				var idle time.Time
				if sink.subs.Load() == 0 {
					idle = time.Now().Add(s.limits.IdleTimeout)
				}
				conn.SetReadDeadline(idle)
			}
			// Checked after the last place this loop moves the deadline: a
			// cut or a Close that came first is seen here, one that comes
			// later expires the deadline the read below waits under.
			if sink.severed.Load() || s.closed.Load() {
				return
			}
		}
		payload, _, err := readFrame(reader, &buf)
		if err != nil {
			switch {
			case err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || s.closed.Load():
			case isTimeout(err):
				// A cut or a failed write expires the deadline on purpose;
				// only silence is idleness.
				if !sink.poisoned() {
					mServerShed.With(shedIdle).Inc()
				}
			default:
				mWireDecodeErrors.Inc()
				if s.logger != nil {
					s.logger.Printf("nwsnet: read frame: %v", err)
				}
			}
			return
		}
		mWireFramesIn.Inc()
		mWireBytesIn.Add(uint64(len(payload)))
		var req Request
		id, err := decodeRequest(payload, &dec, &req)
		if err != nil {
			// Binary framing cannot resynchronize after garbage; close
			// instead of guessing where the next frame starts.
			mWireDecodeErrors.Inc()
			if s.logger != nil {
				s.logger.Printf("nwsnet: decode frame: %v", err)
			}
			return
		}
		// Only a read that found no whole request buffered can have pulled
		// more from the socket: count the burst it brought once, then count
		// it down.
		if ahead > 0 {
			ahead--
		} else {
			ahead = bufferedFrames(reader)
		}
		mServerRequestsByOp.get(req.Op).Inc()
		mWirePipelineDepth.Observe(float64(ahead))
		flush := ahead == 0
		var resp Response
		switch {
		case req.Op == OpHello:
			// Connection-level: attribute the rest of the connection to
			// the named tenant.
			tenant = req.Tenant
		case !s.allowTenant(tenant):
			resp = s.tenantBusy(tenant)
		case req.Op == OpSubscribe && subHandler != nil:
			if err := sink.subscribe(subHandler, &req, id, flush); err != nil {
				if s.logger != nil && !isTimeout(err) {
					s.logger.Printf("nwsnet: subscribe: %v", err)
				}
				return
			}
			continue
		case req.Op == OpUnsubscribe && subHandler != nil:
			resp = subHandler.Unsubscribe(req, sink)
		default:
			resp = s.dispatch(&req)
		}
		if err := sink.send(id, &resp, flush); err != nil {
			if s.logger != nil && !isTimeout(err) {
				s.logger.Printf("nwsnet: write frame: %v", err)
			}
			return
		}
	}
}

// dispatch runs one request through the handler, bounded by the in-flight
// budget when one is configured: a request that cannot get a slot within
// QueueWait is shed with a retryable busy response instead of queueing
// without bound.
func (s *Server) dispatch(req *Request) Response {
	if s.inflight == nil {
		return s.handler.Handle(*req)
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		mServerQueueDepth.Inc()
		expired, stop := s.clk.timer(s.limits.QueueWait)
		select {
		case s.inflight <- struct{}{}:
			stop()
			mServerQueueDepth.Dec()
		case <-expired:
			mServerQueueDepth.Dec()
			mServerShed.With(shedQueue).Inc()
			return busyResp("server overloaded: no in-flight slot within %v; retry", s.limits.QueueWait)
		}
	}
	mServerInFlight.Inc()
	defer func() {
		mServerInFlight.Dec()
		<-s.inflight
	}()
	return s.handler.Handle(*req)
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close stops the listener and drains live connections: requests already
// in flight run to completion and their responses are written before the
// connections close — only the idle wait for the next request is cut
// short (by an expired read deadline). Close blocks until every serving
// goroutine has exited. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	s.closed.Store(true)
	l := s.listener
	past := time.Now().Add(-time.Second)
	for c := range s.conns {
		// Expiring the read deadline unblocks connections parked between
		// requests; a handler mid-request still writes its response (writes
		// are unaffected), then its serve loop observes the dead read and
		// exits, closing the connection.
		c.SetReadDeadline(past)
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}
