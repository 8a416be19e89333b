package nwsnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nwscpu/internal/resilience"
)

// observeCall records one outbound protocol call in the client metrics.
func observeCall(op Op, t0 time.Time, err error) {
	mClientCallsByOp.get(op).Inc()
	mClientLatencyByOp.get(op).ObserveSince(t0)
	if err != nil {
		mClientErrorsByOp.get(op).Inc()
	}
}

// ClientOptions configures a Client. The zero value selects the defaults
// noted on each field.
type ClientOptions struct {
	// Timeout bounds each call attempt — dial plus exchange (0 selects 5 s).
	// A context deadline tighter than this wins; see the *Ctx methods.
	Timeout time.Duration
	// Retry governs how transient failures are retried. The zero value
	// selects the resilience defaults: 3 attempts, 50 ms base backoff
	// doubling to a 2 s cap. Protocol-level errors — the server answered,
	// rejecting the request — are terminal and never retried.
	Retry resilience.Policy
	// MaxIdlePerAddr bounds pooled connections parked per server address
	// (0 selects 2; negative disables reuse — every call dials afresh).
	// Parked connections are reaped after poolIdleTimeout.
	MaxIdlePerAddr int
	// Breaker, when non-nil, enables a per-endpoint circuit breaker with
	// this configuration (nil disables breaking entirely). Transport
	// failures and server "busy" sheds count against an endpoint; any other
	// answered response counts as a success, because a server rejecting a
	// request is still alive. A breaker denial surfaces as a terminal error
	// wrapping resilience.ErrBreakerOpen without touching the endpoint.
	Breaker *resilience.BreakerConfig
	// Tenant, when non-empty, names the tenant every connection announces
	// with an OpHello before its first request, so servers enforcing
	// per-tenant quotas (ServerLimits.TenantRate) attribute this client's
	// traffic correctly. Unattributed clients share the anonymous bucket.
	Tenant string
}

// Client performs protocol calls against nwsnet servers over wire protocol
// v2 (docs/PROTOCOL.md), one request in flight per connection. Connections
// are pooled per address and reused across calls; transient failures (dial
// errors, connections dying mid-exchange) are retried under the client's
// retry policy. A server that declines v2 fails the call with a terminal
// error naming the version it accepted. The typed calls (Ping, Store,
// FetchBatch, …) are the calls surface LocalTransport shares, run through the
// client's retrying exchange. The zero value is not usable; create clients
// with NewClient or NewClientOptions.
type Client struct {
	calls
	timeout    time.Duration
	retry      resilience.Policy
	maxIdle    int
	breakerCfg *resilience.BreakerConfig
	tenant     string

	mu       sync.Mutex
	pools    map[string]*resilience.Pool
	breakers map[string]*resilience.Breaker
}

// NewClient returns a client whose call attempts time out after the given
// duration (0 selects 5 s), with default pooling and retry behavior.
func NewClient(timeout time.Duration) *Client {
	return NewClientOptions(ClientOptions{Timeout: timeout})
}

// NewClientOptions returns a client configured by o.
func NewClientOptions(o ClientOptions) *Client {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	c := &Client{
		timeout:    o.Timeout,
		retry:      o.Retry,
		maxIdle:    o.MaxIdlePerAddr,
		breakerCfg: o.Breaker,
		tenant:     o.Tenant,
		pools:      make(map[string]*resilience.Pool),
		breakers:   make(map[string]*resilience.Breaker),
	}
	c.calls = calls{call: c.do}
	return c
}

// poolIdleTimeout reaps pooled connections parked longer than this.
const poolIdleTimeout = 90 * time.Second

// poolConn is one pooled protocol connection.
type poolConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer

	// Whether the server's accept byte has been read (the preamble is written
	// at dial, but its answer rides in front of the first response), the next
	// request ID, and the reusable decode buffer.
	negotiated bool
	nextID     uint64
	rbuf       []byte

	// helloDone records that the connection has announced its tenant.
	helloDone bool
}

func (pc *poolConn) Close() error { return pc.c.Close() }

// pool returns (creating on first use) the connection pool for addr.
func (c *Client) pool(addr string) *resilience.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pools[addr]
	if p == nil {
		p = resilience.NewPool(resilience.PoolConfig{
			Dial: func(ctx context.Context) (io.Closer, error) {
				d := net.Dialer{Timeout: c.timeout}
				nc, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, fmt.Errorf("nwsnet: dial %s: %w", addr, err)
				}
				// Send the negotiation preamble eagerly so the server can
				// classify the connection the moment it peeks; the accept
				// byte is read before the first response, costing zero
				// extra round trips.
				nc.SetWriteDeadline(time.Now().Add(c.timeout))
				if _, err := nc.Write(wirePreamble[:]); err != nil {
					nc.Close()
					return nil, fmt.Errorf("nwsnet: negotiate with %s: %w", addr, err)
				}
				nc.SetWriteDeadline(time.Time{})
				return &poolConn{c: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriter(nc)}, nil
			},
			MaxIdle:     c.maxIdle,
			IdleTimeout: poolIdleTimeout,
			OnChange: func(idle, active int) {
				mPoolIdle.With(addr).Set(float64(idle))
				mPoolActive.With(addr).Set(float64(active))
			},
		})
		c.pools[addr] = p
	}
	return p
}

// breakerFor returns (creating on first use) the circuit breaker for addr,
// or nil when breaking is disabled. Breakers survive Close: breaker state is
// knowledge about the endpoint, not a held resource.
func (c *Client) breakerFor(addr string) *resilience.Breaker {
	if c.breakerCfg == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[addr]
	if b == nil {
		cfg := *c.breakerCfg
		cfg.OnTransition = func(_, to resilience.BreakerState) {
			mBreakerState.With(addr).Set(float64(to))
			mBreakerTransitions.With(addr, to.String()).Inc()
		}
		b = resilience.NewBreaker(cfg)
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports the circuit-breaker position for addr. It is
// BreakerClosed when breaking is disabled or addr has never been called.
func (c *Client) BreakerState(addr string) resilience.BreakerState {
	if c.breakerCfg == nil {
		return resilience.BreakerClosed
	}
	c.mu.Lock()
	b := c.breakers[addr]
	c.mu.Unlock()
	if b == nil {
		return resilience.BreakerClosed
	}
	return b.State()
}

// Close releases every pooled connection. The client remains usable; later
// calls dial fresh pools.
func (c *Client) Close() error {
	c.mu.Lock()
	pools := c.pools
	c.pools = make(map[string]*resilience.Pool)
	c.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
	return nil
}

// exchange performs one request/response attempt on a pooled connection.
// Transport failures discard the connection; a successful exchange parks it
// for reuse.
func (c *Client) exchange(ctx context.Context, addr string, req Request) (Response, error) {
	pl := c.pool(addr)
	got, err := pl.Get(ctx)
	if err != nil {
		return Response{}, err
	}
	pc := got.(*poolConn)
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := pc.c.SetDeadline(deadline); err != nil {
		pl.Put(pc, false)
		return Response{}, err
	}
	if c.tenant != "" && !pc.helloDone {
		if err := c.hello(pc, addr); err != nil {
			pl.Put(pc, false)
			return Response{}, err
		}
		pc.helloDone = true
	}
	resp, err := exchangeBinary(pc, addr, req)
	if err == errShedConn {
		// The busy response is a valid answer (do() classifies it as
		// retryable); only the connection is dead.
		pl.Put(pc, false)
		return resp, nil
	}
	pl.Put(pc, err == nil)
	return resp, err
}

// exchangeBinary performs one lockstep request/response attempt on the v2
// codec. The first exchange on a connection also consumes the server's
// accept byte. The only response IDs a lockstep connection can legally see
// are the one it just sent and the reserved connection-level ID 0 (a busy
// shed); anything else means the stream desynchronized, which poisons the
// connection.
func exchangeBinary(pc *poolConn, addr string, req Request) (Response, error) {
	pc.nextID++
	id := pc.nextID
	buf := getEncBuf()
	payload, err := encodeRequestPayload(*buf, id, &req)
	if err != nil {
		putEncBuf(buf)
		return Response{}, resilience.Permanent(fmt.Errorf("nwsnet: encode for %s: %w", addr, err))
	}
	werr := writeFrame(pc.w, payload)
	*buf = payload
	putEncBuf(buf)
	if werr == nil {
		werr = pc.w.Flush()
	}
	if werr != nil {
		return Response{}, fmt.Errorf("nwsnet: send to %s: %w", addr, werr)
	}
	if !pc.negotiated {
		accept, err := pc.r.ReadByte()
		if err != nil {
			return Response{}, fmt.Errorf("nwsnet: negotiate with %s: %w", addr, err)
		}
		if accept != wireVersionBinary {
			return Response{}, resilience.Permanent(fmt.Errorf(
				"nwsnet: %s accepted wire version %d, not binary (%d)", addr, accept, wireVersionBinary))
		}
		pc.negotiated = true
	}
	rp, _, err := readFrame(pc.r, &pc.rbuf)
	if err != nil {
		return Response{}, fmt.Errorf("nwsnet: receive from %s: %w", addr, err)
	}
	respID, resp, err := decodeResponsePayload(rp)
	if err != nil {
		return Response{}, fmt.Errorf("nwsnet: receive from %s: %w", addr, err)
	}
	if respID != id {
		if respID == 0 && resp.Code == CodeBusy {
			// A connection-level shed: the server answered without reading
			// our request and is closing. Surface the busy response; the
			// error return discards the connection from the pool.
			return resp, errShedConn
		}
		return Response{}, fmt.Errorf("nwsnet: %s: response ID %d for request %d", addr, respID, id)
	}
	return resp, nil
}

// errShedConn marks a connection-level busy response (request ID 0): the
// response itself is valid, but the connection must not be reused.
var errShedConn = errors.New("nwsnet: connection shed by server")

// hello announces the client's tenant as a connection's first request.
func (c *Client) hello(pc *poolConn, addr string) error {
	resp, err := exchangeBinary(pc, addr, Request{Op: OpHello, Tenant: c.tenant})
	if err == nil {
		err = respError(addr, resp)
	}
	if err != nil {
		return fmt.Errorf("nwsnet: hello to %s: %w", addr, err)
	}
	return nil
}

// do performs a call under the retry policy and converts protocol-level
// errors to Go errors. Protocol errors (the server answered, rejecting the
// request) are terminal; transport errors and server "busy" sheds are
// retried with backoff until the policy or ctx gives up. With a breaker
// configured, every attempt asks the endpoint's breaker first and feeds its
// outcome back; a denial returns immediately (terminal, wrapping
// resilience.ErrBreakerOpen) without touching the endpoint.
func (c *Client) do(ctx context.Context, addr string, req Request) (resp Response, err error) {
	t0 := time.Now()
	defer func() { observeCall(req.Op, t0, err) }()
	brk := c.breakerFor(addr)
	policy := c.retry
	op := opLabel(req.Op)
	policy.OnRetry = func(int, time.Duration, error) { mClientRetries.With(op).Inc() }
	err = policy.Do(ctx, func(ctx context.Context) error {
		if brk != nil && !brk.Allow() {
			return resilience.Permanent(fmt.Errorf("nwsnet: %s: %w", addr, resilience.ErrBreakerOpen))
		}
		r, e := c.exchange(ctx, addr, req)
		if e != nil {
			if brk != nil {
				brk.Record(false)
			}
			return e
		}
		rerr := respError(addr, r)
		if brk != nil {
			// A busy shed is a failure for breaker purposes; any other
			// answered response — acceptance or rejection — is proof of
			// life for the endpoint.
			brk.Record(!IsBusy(rerr))
		}
		if rerr != nil {
			return rerr
		}
		resp = r
		return nil
	})
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}
