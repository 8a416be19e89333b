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

// Negotiation outcomes, the label values of nws_wire_connections_total.
const (
	codecJSON   = "json"   // wire protocol v1: no preamble, or one asking for a version below 2
	codecBinary = "binary" // wire protocol v2
)

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
	// IdleTimeout disconnects a connection that sends no request for this
	// long (reason "idle") — the defense against clients that connect and
	// never send, which would otherwise pin a goroutine forever. 0 = no
	// idle deadline.
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

// Server accepts JSON-line connections and dispatches them to a Handler.
// A connection may carry any number of request/response exchanges.
type Server struct {
	handler  Handler
	logger   *log.Logger
	limits   ServerLimits
	inflight chan struct{} // in-flight request slots; nil when unlimited

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
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
	if s.closed {
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
		if s.closed {
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
// busy response and closes it. The response is written before the close and
// the inbound side is drained briefly so an in-flight request line does not
// turn the close into a reset that loses the response.
//
// The shed must speak the codec the client expects, so it briefly sniffs for
// the binary preamble (which v2 clients send eagerly at dial). A client that
// has sent nothing within the sniff budget gets the JSON shed — the only
// answer a codec-unknown peer might understand.
func (s *Server) shedConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	r := bufio.NewReaderSize(conn, 16)
	w := bufio.NewWriter(conn)
	resp := busyResp("server at connection capacity; retry")
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	first, err := r.Peek(1)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if err == nil && first[0] == wirePreamble[0] {
		var pre [wirePreambleLen]byte
		if _, err := io.ReadFull(r, pre[:]); err == nil && pre[1] == 'N' && pre[2] == 'W' && pre[3] == 'S' {
			w.WriteByte(wireVersionBinary)
			// Request ID 0 is reserved for exactly this: a connection-level
			// response to requests the server never read.
			buf := getEncBuf()
			if payload, perr := encodeResponsePayload(*buf, 0, resp); perr == nil {
				writeFrame(w, payload)
			}
			putEncBuf(buf)
			w.Flush()
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			io.Copy(io.Discard, conn)
			return
		}
	}
	writeMsg(w, resp)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
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

	// Codec negotiation: a v2 client opens with a NUL-led preamble, which can
	// never begin a JSON line, so peeking one byte classifies the connection
	// without consuming anything a v1 client sent. The peek waits under the
	// same idle deadline a request read would.
	if s.limits.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.limits.IdleTimeout))
	}
	first, err := reader.Peek(1)
	if err != nil {
		if err != io.EOF && !s.isClosed() {
			if isTimeout(err) {
				mServerShed.With(shedIdle).Inc()
			} else if s.logger != nil {
				s.logger.Printf("nwsnet: read: %v", err)
			}
		}
		return
	}
	if first[0] == wirePreamble[0] {
		if !s.negotiateBinary(conn, reader, writer) {
			return
		}
		mWireConns.With(codecBinary).Inc()
		s.serveBinary(conn, reader, writer)
		return
	}
	mWireConns.With(codecJSON).Inc()
	s.serveJSON(conn, reader, writer)
}

// negotiateBinary consumes a binary preamble and answers with the accept
// byte. It reports whether the connection should proceed on the binary
// codec; a malformed preamble closes the connection, and a version below
// binary is answered with the JSON accept byte and downgraded in place
// (the JSON loop takes over — nothing of the old protocol is lost).
func (s *Server) negotiateBinary(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer) bool {
	var pre [wirePreambleLen]byte
	if _, err := io.ReadFull(reader, pre[:]); err != nil {
		mWireDecodeErrors.Inc()
		return false
	}
	if pre[1] != 'N' || pre[2] != 'W' || pre[3] != 'S' {
		mWireDecodeErrors.Inc()
		if s.logger != nil {
			s.logger.Printf("nwsnet: bad negotiation preamble % x", pre)
		}
		return false
	}
	if pre[4] < wireVersionBinary {
		// The client asked for a version this server no longer frames
		// natively; fall back to the JSON codec both sides speak.
		writer.WriteByte(wireVersionJSON)
		if writer.Flush() != nil {
			return false
		}
		mWireConns.With(codecJSON).Inc()
		s.serveJSON(conn, reader, writer)
		return false
	}
	// The accept byte is buffered, not flushed: it rides in front of the
	// first response, so negotiation costs a pipelining client zero round
	// trips.
	writer.WriteByte(wireVersionBinary)
	return true
}

// serveJSON is the v1 serve loop: newline-framed JSON, strict
// request/response lockstep.
func (s *Server) serveJSON(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer) {
	var tenant string
	for {
		if s.limits.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.limits.IdleTimeout))
		}
		var req Request
		if err := readMsg(reader, &req); err != nil {
			if err != io.EOF && !s.isClosed() {
				if isTimeout(err) {
					// The idle deadline fired with no request in flight:
					// disconnect the silent client instead of pinning this
					// goroutine forever.
					mServerShed.With(shedIdle).Inc()
				} else if s.logger != nil {
					s.logger.Printf("nwsnet: read: %v", err)
				}
			}
			return
		}
		mServerRequestsByOp.get(req.Op).Inc()
		var resp Response
		switch {
		case req.Op == OpHello:
			// Connection-level: attribute the rest of the connection to
			// the named tenant. Handled by the server, not the handler,
			// so quotas work identically on every role.
			tenant = req.Tenant
		case !s.allowTenant(tenant):
			resp = s.tenantBusy(tenant)
		default:
			resp = s.dispatch(req)
		}
		resp.OK = resp.Error == ""
		if s.limits.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.limits.WriteTimeout))
		}
		if err := writeMsg(writer, resp); err != nil {
			if isTimeout(err) {
				// A stalled reader: the client stopped draining its socket
				// while we were mid-response. Cut the connection rather
				// than block the handler goroutine on its buffer.
				mServerShed.With(shedWrite).Inc()
			} else if s.logger != nil {
				s.logger.Printf("nwsnet: write: %v", err)
			}
			return
		}
	}
}

// wireInbound is one decoded binary request queued between the frame reader
// and the executor.
type wireInbound struct {
	id  uint64
	req Request
}

// binSink is the serialized write half of one binary connection: every
// outbound frame — ordinary responses from the executor and server-initiated
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
// sink; the frame reader checks it before reading a timeout as idleness.
func (k *binSink) poisoned() bool {
	if k.severed.Load() {
		return true
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err != nil
}

// close poisons the sink so no further push lands and no read timeout is
// excused; the serve loop calls it on its way out.
func (k *binSink) close() {
	k.mu.Lock()
	if k.err == nil {
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

// writeLocked frames payload and optionally flushes; callers hold k.mu. A
// failure poisons the sink and expires the connection's read deadline so
// the serve loop tears the connection down promptly.
func (k *binSink) writeLocked(payload []byte, flush bool) error {
	if k.err != nil {
		return k.err
	}
	// Arm the write deadline once per flush batch (the buffer is empty
	// exactly when a batch starts): it still bounds how long a stalled
	// peer can pin the connection, without a deadline call per frame.
	if k.limits.WriteTimeout > 0 && k.w.Buffered() == 0 {
		k.conn.SetWriteDeadline(time.Now().Add(k.limits.WriteTimeout))
	}
	err := writeFrame(k.w, payload)
	if err == nil {
		mWireFramesOut.Inc()
		mWireBytesOut.Add(uint64(len(payload)))
		if flush {
			err = k.w.Flush()
		}
	}
	if err != nil {
		if isTimeout(err) {
			mServerShed.With(shedWrite).Inc()
		}
		k.err = err
		k.conn.SetReadDeadline(time.Now().Add(-time.Second))
	}
	return err
}

// send encodes and writes one response frame tagged with id.
func (k *binSink) send(id uint64, resp Response, flush bool) error {
	buf := getEncBuf()
	payload, err := encodeResponsePayload(*buf, id, resp)
	if err != nil {
		putEncBuf(buf)
		return err
	}
	k.mu.Lock()
	err = k.writeLocked(payload, flush)
	k.mu.Unlock()
	*buf = payload
	putEncBuf(buf)
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
// subscriptions stay live and the next tick supersedes the dropped
// forecasts. Otherwise the batch runs under a write deadline (WriteTimeout,
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
		if size := binary.PutUvarint(hdr[4:], it.ID) + len(it.Body); size > maxFrameBytes {
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
		n := binary.PutUvarint(hdr[4:], it.ID)
		size := n + len(it.Body)
		binary.BigEndian.PutUint32(hdr[:4], uint32(size))
		if _, err = k.w.Write(hdr[:4+n]); err != nil {
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
		// Same teardown as writeLocked: poison the sink and expire the read
		// deadline so the serve loop exits promptly.
		if isTimeout(err) {
			mServerShed.With(shedWrite).Inc()
		}
		k.err = err
		k.conn.SetReadDeadline(time.Now().Add(-time.Second))
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
func (k *binSink) subscribe(h SubscriptionHandler, in wireInbound, flush bool) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	resp := h.Subscribe(in.req, in.id, k)
	resp.OK = resp.Error == ""
	buf := getEncBuf()
	payload, err := encodeResponsePayload(*buf, in.id, resp)
	if err != nil {
		putEncBuf(buf)
		return err
	}
	err = k.writeLocked(payload, flush)
	*buf = payload
	putEncBuf(buf)
	return err
}

// serveBinary is the v2 serve loop. A reader goroutine decodes frames ahead
// of execution into a bounded queue — the server half of pipelining — while
// this goroutine executes them strictly in arrival order (order matters: the
// memory server's idempotent-store dedup relies on a connection's stores
// applying in the sequence they were sent) and writes responses back tagged
// with the request ID, coalescing flushes while more work is queued. All
// writes go through a binSink so subscription pushes (server-initiated
// frames from a SubscriptionHandler) serialize cleanly with responses.
func (s *Server) serveBinary(conn net.Conn, reader *bufio.Reader, writer *bufio.Writer) {
	sink := &binSink{conn: conn, limits: s.limits, w: writer}
	subHandler, _ := s.handler.(SubscriptionHandler)
	queue := make(chan wireInbound, wireReadAhead)
	go func() {
		defer close(queue)
		var buf []byte
		for {
			// Arm the idle deadline only when the next frame has to touch the
			// socket; frames already buffered (pipelined bursts) mean the
			// connection is anything but idle. A connection with active
			// subscriptions is never idle-disconnected: it is quiet because
			// it is listening, not because it is gone.
			if s.limits.IdleTimeout > 0 && reader.Buffered() == 0 && sink.subs.Load() == 0 {
				conn.SetReadDeadline(time.Now().Add(s.limits.IdleTimeout))
			}
			// Checked after the last place this loop moves the deadline: a cut
			// that came first is seen here, one that comes later expires the
			// deadline the read below waits under.
			if sink.severed.Load() {
				return
			}
			payload, n, err := readFrame(reader, &buf)
			if err != nil {
				if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || s.isClosed() {
					return
				}
				if isTimeout(err) {
					if sink.poisoned() {
						return // the deadline was expired on purpose, not by silence
					}
					if n == 0 && sink.subs.Load() > 0 {
						// The deadline was armed before the executor
						// registered a subscription; clear it and keep
						// listening.
						conn.SetReadDeadline(time.Time{})
						continue
					}
					mServerShed.With(shedIdle).Inc()
					return
				}
				mWireDecodeErrors.Inc()
				if s.logger != nil {
					s.logger.Printf("nwsnet: read frame: %v", err)
				}
				return
			}
			mWireFramesIn.Inc()
			mWireBytesIn.Add(uint64(len(payload)))
			id, req, err := decodeRequestPayload(payload)
			if err != nil {
				// Binary framing cannot resynchronize after garbage; close
				// instead of guessing where the next frame starts.
				mWireDecodeErrors.Inc()
				if s.logger != nil {
					s.logger.Printf("nwsnet: decode frame: %v", err)
				}
				return
			}
			queue <- wireInbound{id: id, req: req}
		}
	}()
	// On exit, poison the sink (so no read timeout is excused and no push
	// lands mid-teardown), unblock the reader (it may be parked on a read
	// or a queue send), and drain until it closes the channel, so
	// serveConn's deferred conn.Close never races a goroutine still using
	// the bufio.Reader.
	defer func() {
		sink.close()
		conn.SetReadDeadline(time.Now().Add(-time.Second))
		for range queue {
		}
	}()
	// Drop this connection's subscriptions first (LIFO), before the reader
	// is reaped, so the handler stops pushing to a connection on its way out.
	if subHandler != nil {
		defer subHandler.DropSink(sink)
	}
	var tenant string
	for in := range queue {
		mServerRequestsByOp.get(in.req.Op).Inc()
		mWirePipelineDepth.Observe(float64(len(queue)))
		// Flush only when no further request is queued: under pipelining
		// many responses share one syscall.
		flush := len(queue) == 0
		var resp Response
		switch {
		case in.req.Op == OpHello:
			// Connection-level: attribute the rest of the connection to
			// the named tenant.
			tenant = in.req.Tenant
		case !s.allowTenant(tenant):
			resp = s.tenantBusy(tenant)
		case in.req.Op == OpSubscribe && subHandler != nil:
			if err := sink.subscribe(subHandler, in, flush); err != nil {
				if s.logger != nil && !isTimeout(err) {
					s.logger.Printf("nwsnet: subscribe: %v", err)
				}
				return
			}
			continue
		case in.req.Op == OpUnsubscribe && subHandler != nil:
			resp = subHandler.Unsubscribe(in.req, sink)
		default:
			resp = s.dispatch(in.req)
		}
		resp.OK = resp.Error == ""
		if err := sink.send(in.id, resp, flush); err != nil {
			if s.logger != nil && !isTimeout(err) {
				s.logger.Printf("nwsnet: write frame: %v", err)
			}
			return
		}
	}
	sink.mu.Lock()
	writer.Flush()
	sink.mu.Unlock()
}

// dispatch runs one request through the handler, bounded by the in-flight
// budget when one is configured: a request that cannot get a slot within
// QueueWait is shed with a retryable busy response instead of queueing
// without bound.
func (s *Server) dispatch(req Request) Response {
	if s.inflight == nil {
		return s.handler.Handle(req)
	}
	select {
	case s.inflight <- struct{}{}:
	default:
		mServerQueueDepth.Inc()
		t := time.NewTimer(s.limits.QueueWait)
		select {
		case s.inflight <- struct{}{}:
			t.Stop()
			mServerQueueDepth.Dec()
		case <-t.C:
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
	return s.handler.Handle(req)
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops the listener and drains live connections: requests already
// in flight run to completion and their responses are written before the
// connections close — only the idle wait for the next request is cut
// short (by an expired read deadline). Close blocks until every serving
// goroutine has exited. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
