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

	"nwscpu/internal/nwsnet/cluster"
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
	MaxIdlePerAddr int
	// MaxActivePerAddr bounds in-flight connections per server address;
	// calls beyond it wait (0 = unlimited).
	MaxActivePerAddr int
	// IdleTimeout reaps pooled connections parked longer than this
	// (0 selects 90 s; negative disables reaping).
	IdleTimeout time.Duration
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
// error naming the version it accepted. The zero value is not usable; create
// clients with NewClient or NewClientOptions.
type Client struct {
	timeout     time.Duration
	retry       resilience.Policy
	maxIdle     int
	maxActive   int
	idleTimeout time.Duration
	breakerCfg  *resilience.BreakerConfig
	tenant      string

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
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 90 * time.Second
	} else if o.IdleTimeout < 0 {
		o.IdleTimeout = 0
	}
	return &Client{
		timeout:     o.Timeout,
		retry:       o.Retry,
		maxIdle:     o.MaxIdlePerAddr,
		maxActive:   o.MaxActivePerAddr,
		idleTimeout: o.IdleTimeout,
		breakerCfg:  o.Breaker,
		tenant:      o.Tenant,
		pools:       make(map[string]*resilience.Pool),
		breakers:    make(map[string]*resilience.Breaker),
	}
}

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
			MaxActive:   c.maxActive,
			IdleTimeout: c.idleTimeout,
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
	payload, err := encodeRequestPayload(*buf, id, req)
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

// respError converts an answered response into its caller-facing error: nil
// for success, a retryable busy-classified error for a load shed, and a
// terminal error for an ordinary protocol rejection (the server understood
// the request and said no — retrying it verbatim cannot help).
func respError(addr string, r Response) error {
	if r.Code == CodeBusy {
		return fmt.Errorf("nwsnet: %s: %s: %w", addr, r.Error, errBusySentinel)
	}
	if r.Code == CodeMoved {
		// An ownership redirect: terminal for this endpoint (it will keep
		// redirecting), but typed so the routing layer can adopt the
		// attached view and re-route instead of failing the call.
		return resilience.Permanent(&MovedError{Addr: addr, View: r.View, Msg: r.Error})
	}
	if r.Error != "" {
		return resilience.Permanent(errors.New(r.Error))
	}
	return nil
}

// Ping checks a component is alive.
func (c *Client) Ping(addr string) error { return c.PingCtx(context.Background(), addr) }

// PingCtx is Ping honoring a caller context for cancellation/deadline.
func (c *Client) PingCtx(ctx context.Context, addr string) error {
	_, err := c.do(ctx, addr, Request{Op: OpPing})
	return err
}

// Register announces a component to the name server at nsAddr.
func (c *Client) Register(nsAddr string, reg Registration) error {
	return c.RegisterCtx(context.Background(), nsAddr, reg)
}

// RegisterCtx is Register honoring a caller context.
func (c *Client) RegisterCtx(ctx context.Context, nsAddr string, reg Registration) error {
	_, err := c.do(ctx, nsAddr, Request{Op: OpRegister, Reg: reg})
	return err
}

// Lookup resolves a component name at the name server.
func (c *Client) Lookup(nsAddr, name string) (Registration, error) {
	return c.LookupCtx(context.Background(), nsAddr, name)
}

// LookupCtx is Lookup honoring a caller context.
func (c *Client) LookupCtx(ctx context.Context, nsAddr, name string) (Registration, error) {
	resp, err := c.do(ctx, nsAddr, Request{Op: OpLookup, Reg: Registration{Name: name}})
	if err != nil {
		return Registration{}, err
	}
	if len(resp.Entries) != 1 {
		return Registration{}, fmt.Errorf("nwsnet: lookup %q returned %d entries", name, len(resp.Entries))
	}
	return resp.Entries[0], nil
}

// List enumerates components of the given kind ("" for all).
func (c *Client) List(nsAddr string, kind Kind) ([]Registration, error) {
	return c.ListCtx(context.Background(), nsAddr, kind)
}

// ListCtx is List honoring a caller context.
func (c *Client) ListCtx(ctx context.Context, nsAddr string, kind Kind) ([]Registration, error) {
	resp, err := c.do(ctx, nsAddr, Request{Op: OpList, Reg: Registration{Kind: kind}})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Store appends points ([t, v] pairs) to a series on the memory server.
func (c *Client) Store(memAddr, key string, points [][2]float64) error {
	return c.StoreCtx(context.Background(), memAddr, key, points)
}

// StoreCtx is Store honoring a caller context.
func (c *Client) StoreCtx(ctx context.Context, memAddr, key string, points [][2]float64) error {
	_, err := c.do(ctx, memAddr, Request{Op: OpStore, Series: key, Points: points})
	return err
}

// BatchStore is one store sub-request of a batched memory call.
type BatchStore struct {
	Series string
	Points [][2]float64 // [t, v] pairs
}

// BatchFetch is one fetch sub-request of a batched memory call. The range
// semantics match Fetch: [From, To) with To == 0 meaning "through the
// latest point", keeping only the most recent Max points when Max > 0.
type BatchFetch struct {
	Series   string
	From, To float64
	Max      int
}

// FetchResult is one sub-result of a batched fetch: the points, or the
// protocol-level rejection for that sub-request alone.
type FetchResult struct {
	Points [][2]float64
	Err    error
}

// storeEnvelope and fetchEnvelope pack sub-requests into the one OpBatch
// request every delivery plane sends — the pooled Client, LocalTransport and
// LocalBackend differ only in how the request reaches a Handler.
func storeEnvelope(stores []BatchStore) Request {
	subs := make([]Request, len(stores))
	for i, s := range stores {
		subs[i] = Request{Op: OpStore, Series: s.Series, Points: s.Points}
	}
	return Request{Op: OpBatch, Batch: subs}
}

func fetchEnvelope(fetches []BatchFetch) Request {
	subs := make([]Request, len(fetches))
	for i, f := range fetches {
		subs[i] = Request{Op: OpFetch, Series: f.Series, From: f.From, To: f.To, Max: f.Max}
	}
	return Request{Op: OpBatch, Batch: subs}
}

// openEnvelope validates an answered batch envelope against the n
// sub-requests sent and returns its sub-responses. An envelope-level error
// fails the call only when no sub-responses came with it; a sub-response
// count that does not match is always a failure, because results align with
// requests by position alone.
func openEnvelope(addr string, resp Response, n int) ([]Response, error) {
	if err := respError(addr, resp); err != nil && len(resp.Batch) == 0 {
		return nil, err
	}
	if len(resp.Batch) != n {
		return nil, fmt.Errorf("nwsnet: %s: batch returned %d sub-responses, want %d", addr, len(resp.Batch), n)
	}
	return resp.Batch, nil
}

// storeResults unpacks a store envelope's answer: one entry per sub-store,
// classified like top-level responses so per-sub busy sheds stay retryable
// and per-sub ownership redirects stay typed.
func storeResults(addr string, resp Response, n int) ([]error, error) {
	subs, err := openEnvelope(addr, resp, n)
	if err != nil {
		return nil, err
	}
	errs := make([]error, n)
	for i, r := range subs {
		errs[i] = respError(addr, r)
	}
	return errs, nil
}

// fetchResults unpacks a fetch envelope's answer: the points, or the
// rejection, of each sub-fetch.
func fetchResults(addr string, resp Response, n int) ([]FetchResult, error) {
	subs, err := openEnvelope(addr, resp, n)
	if err != nil {
		return nil, err
	}
	out := make([]FetchResult, n)
	for i, r := range subs {
		if err := respError(addr, r); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Points = r.Points
	}
	return out, nil
}

// StoreBatch stores several series in one round trip via the batch
// envelope. The returned slice has one entry per input — nil on success,
// the server's rejection otherwise; the second return value reports
// envelope-level failures (transport errors, a malformed batch), in which
// case the per-sub slice is nil.
func (c *Client) StoreBatch(memAddr string, stores []BatchStore) ([]error, error) {
	return c.StoreBatchCtx(context.Background(), memAddr, stores)
}

// StoreBatchCtx is StoreBatch honoring a caller context.
func (c *Client) StoreBatchCtx(ctx context.Context, memAddr string, stores []BatchStore) ([]error, error) {
	if len(stores) == 0 {
		return nil, nil
	}
	resp, err := c.do(ctx, memAddr, storeEnvelope(stores))
	if err != nil {
		return nil, err
	}
	return storeResults(memAddr, resp, len(stores))
}

// FetchBatch reads several series ranges in one round trip via the batch
// envelope. The returned slice has one entry per input; per-sub rejections
// (an unknown series, say) land in that entry's Err without failing the
// others. The second return value reports envelope-level failures.
func (c *Client) FetchBatch(memAddr string, fetches []BatchFetch) ([]FetchResult, error) {
	return c.FetchBatchCtx(context.Background(), memAddr, fetches)
}

// FetchBatchCtx is FetchBatch honoring a caller context.
func (c *Client) FetchBatchCtx(ctx context.Context, memAddr string, fetches []BatchFetch) ([]FetchResult, error) {
	if len(fetches) == 0 {
		return nil, nil
	}
	resp, err := c.do(ctx, memAddr, fetchEnvelope(fetches))
	if err != nil {
		return nil, err
	}
	return fetchResults(memAddr, resp, len(fetches))
}

// Fetch reads back points of a series with t in [from, to) (to == 0 means
// "through the latest point"), limited to the most recent max points when
// max > 0.
func (c *Client) Fetch(memAddr, key string, from, to float64, max int) ([][2]float64, error) {
	return c.FetchCtx(context.Background(), memAddr, key, from, to, max)
}

// FetchCtx is Fetch honoring a caller context.
func (c *Client) FetchCtx(ctx context.Context, memAddr, key string, from, to float64, max int) ([][2]float64, error) {
	resp, err := c.do(ctx, memAddr, Request{Op: OpFetch, Series: key, From: from, To: to, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// Digests asks a memory server for anti-entropy series digests: all series
// when key is "", else just that series (see docs/PROTOCOL.md §9).
func (c *Client) Digests(memAddr, key string) ([]SeriesDigest, error) {
	return c.DigestsCtx(context.Background(), memAddr, key)
}

// DigestsCtx is Digests honoring a caller context.
func (c *Client) DigestsCtx(ctx context.Context, memAddr, key string) ([]SeriesDigest, error) {
	resp, err := c.do(ctx, memAddr, Request{Op: OpDigest, Series: key})
	if err != nil {
		return nil, err
	}
	return resp.Digests, nil
}

// Backfill merge-inserts points behind a series' frontier on a memory
// server — the delivery path for hinted handoff and repair pushes, where
// the ordinary store path would dedup old timestamps away.
func (c *Client) Backfill(memAddr, key string, points [][2]float64) error {
	return c.BackfillCtx(context.Background(), memAddr, key, points)
}

// BackfillCtx is Backfill honoring a caller context.
func (c *Client) BackfillCtx(ctx context.Context, memAddr, key string, points [][2]float64) error {
	_, err := c.do(ctx, memAddr, Request{Op: OpBackfill, Series: key, Points: points})
	return err
}

// Series lists the series keys a memory server holds.
func (c *Client) Series(memAddr string) ([]string, error) {
	return c.SeriesCtx(context.Background(), memAddr)
}

// SeriesCtx is Series honoring a caller context.
func (c *Client) SeriesCtx(ctx context.Context, memAddr string) ([]string, error) {
	resp, err := c.do(ctx, memAddr, Request{Op: OpSeries})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Forecast asks a forecaster service for the one-step-ahead prediction of a
// series.
func (c *Client) Forecast(fcAddr, key string) (ForecastResult, error) {
	return c.ForecastCtx(context.Background(), fcAddr, key)
}

// ForecastCtx is Forecast honoring a caller context.
func (c *Client) ForecastCtx(ctx context.Context, fcAddr, key string) (ForecastResult, error) {
	resp, err := c.do(ctx, fcAddr, Request{Op: OpForecast, Series: key})
	if err != nil {
		return ForecastResult{}, err
	}
	if resp.Forecast == nil {
		return ForecastResult{}, errors.New("nwsnet: forecaster returned no forecast")
	}
	return *resp.Forecast, nil
}

// JoinCluster announces a member to the cluster registry at nsAddr and
// returns the resulting membership view. Joining with State left empty (or
// StateJoining) takes a lease without entering the routing ring; re-joining
// with StateActive activates the member, bumping the view epoch.
func (c *Client) JoinCluster(nsAddr string, m cluster.Member) (cluster.View, error) {
	return c.JoinClusterCtx(context.Background(), nsAddr, m)
}

// JoinClusterCtx is JoinCluster honoring a caller context.
func (c *Client) JoinClusterCtx(ctx context.Context, nsAddr string, m cluster.Member) (cluster.View, error) {
	resp, err := c.do(ctx, nsAddr, Request{Op: OpJoin, Member: &m})
	if err != nil {
		return cluster.View{}, err
	}
	if resp.View == nil {
		return cluster.View{}, errors.New("nwsnet: join returned no view")
	}
	return *resp.View, nil
}

// RenewLease refreshes a member's registry lease. epoch is the view epoch
// the member currently holds; when the registry has moved past it the
// returned view is non-nil and should be adopted. A terminal "unknown
// member" error means the lease already expired (or the registry
// restarted) and the member must re-join.
func (c *Client) RenewLease(nsAddr, memberID string, epoch uint64) (*cluster.View, error) {
	return c.RenewLeaseCtx(context.Background(), nsAddr, memberID, epoch)
}

// RenewLeaseCtx is RenewLease honoring a caller context.
func (c *Client) RenewLeaseCtx(ctx context.Context, nsAddr, memberID string, epoch uint64) (*cluster.View, error) {
	resp, err := c.do(ctx, nsAddr, Request{Op: OpLease, Member: &cluster.Member{ID: memberID}, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.View, nil
}

// FetchView fetches the registry's membership view. epoch is the view the
// caller already holds: when it is still current the registry answers "not
// modified" and FetchView returns (nil, nil). Pass 0 to always fetch.
func (c *Client) FetchView(nsAddr string, epoch uint64) (*cluster.View, error) {
	return c.FetchViewCtx(context.Background(), nsAddr, epoch)
}

// FetchViewCtx is FetchView honoring a caller context.
func (c *Client) FetchViewCtx(ctx context.Context, nsAddr string, epoch uint64) (*cluster.View, error) {
	resp, err := c.do(ctx, nsAddr, Request{Op: OpView, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.View, nil
}
