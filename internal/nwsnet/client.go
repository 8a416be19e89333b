package nwsnet

import (
	"context"
	"errors"
	"fmt"
	"io"
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
	// A context that ends sooner wins: every call takes the caller's context.
	Timeout time.Duration
	// Retry governs how transient failures are retried: its MaxAttempts and
	// BaseDelay, whose zero values select 3 attempts and a 50 ms base
	// backoff doubling to a 2 s cap. Protocol-level errors — the server
	// answered, rejecting the request — are terminal and never retried.
	Retry resilience.Policy
	// Breaker enables a per-endpoint circuit breaker (resilience.Breaker),
	// which lets one probe at a time through to an endpoint that keeps
	// failing. Transport failures and server "busy" sheds count against an
	// endpoint; any other answered response counts as a success, because a
	// server rejecting a request is still alive. An attempt the caller
	// cancelled counts neither way (a context deadline counts as a
	// timeout). A breaker denial surfaces as a terminal error wrapping
	// resilience.ErrBreakerOpen without touching the endpoint.
	Breaker bool
	// Tenant, when non-empty, names the tenant every connection announces
	// with an OpHello when it is dialed, so servers enforcing per-tenant
	// quotas (ServerLimits.TenantRate) attribute this client's traffic
	// correctly. Unattributed clients share the anonymous bucket.
	Tenant string
}

// Client performs protocol calls against nwsnet servers over wire protocol
// v2 (docs/PROTOCOL.md). It pools MuxConns per address and checks one out
// per attempt, so concurrent callers never queue behind each other on a
// connection whose requests the server runs one at a time, in arrival order.
// Transient failures (dial errors, connections dying mid-exchange) are
// retried under the client's retry policy; a dead connection is never parked
// again, so a retry dials fresh. A
// server that declines v2 fails the call with a terminal error naming the
// version it accepted. The typed calls (PingCtx, StoreCtx, FetchBatchCtx,
// …) are the calls surface LocalTransport shares, run through the client's
// retrying exchange. The zero value is not usable; create clients with
// NewClient or NewClientOptions.
type Client struct {
	calls
	timeout time.Duration
	retry   resilience.Policy
	breaker bool
	tenant  string

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
	c := &Client{
		timeout:  o.Timeout,
		retry:    o.Retry,
		breaker:  o.Breaker,
		tenant:   o.Tenant,
		pools:    make(map[string]*resilience.Pool),
		breakers: make(map[string]*resilience.Breaker),
	}
	c.calls = calls{call: c.do}
	return c
}

// pool returns (creating on first use) the connection pool for addr.
func (c *Client) pool(addr string) *resilience.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pools[addr]
	if p == nil {
		p = resilience.NewPool(func(ctx context.Context) (io.Closer, error) {
			return dialMux(ctx, addr, c.tenant, c.timeout, true)
		}, func(idle, active int) {
			mPoolIdle.With(addr).Set(float64(idle))
			mPoolActive.With(addr).Set(float64(active))
		})
		c.pools[addr] = p
	}
	return p
}

// breakerFor returns (creating on first use) the circuit breaker for addr,
// or nil when breaking is disabled. Breakers survive Close: breaker state is
// knowledge about the endpoint, not a held resource.
func (c *Client) breakerFor(addr string) *resilience.Breaker {
	if !c.breaker {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[addr]
	if b == nil {
		b = resilience.NewBreaker(func(to resilience.BreakerState) {
			mBreakerState.With(addr).Set(float64(to))
			mBreakerTransitions.With(addr, to.String()).Inc()
		})
		c.breakers[addr] = b
	}
	return b
}

// BreakerState reports the circuit-breaker position for addr. It is
// BreakerClosed when breaking is disabled or addr has never been called.
func (c *Client) BreakerState(addr string) resilience.BreakerState {
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

// exchange performs one attempt: it checks a connection out, makes one call
// on it, and puts it back. Any failure that poisoned the connection — a
// transport error, a connection-level busy shed, ctx ending — discards it; a
// protocol rejection leaves it parked for reuse.
func (c *Client) exchange(ctx context.Context, addr string, req Request) (Response, error) {
	pl := c.pool(addr)
	for {
		got, err := pl.Get(ctx)
		if err != nil {
			return Response{}, err
		}
		m := got.(*MuxConn)
		// A once-parked connection the server closed since (an idle reap, a
		// restart) is swapped without spending the attempt. A fresh dead one
		// fails it, so a server shedding every connection ends the loop.
		if m.parked && !m.alive() {
			pl.Put(m, false)
			continue
		}
		resp, err := m.doCtx(ctx, req)
		m.parked = true
		pl.Put(m, m.alive())
		return resp, err
	}
}

// do performs a call under the retry policy. Protocol errors (the server
// answered, rejecting the request) are terminal; transport errors and server
// "busy" sheds are retried with backoff until the policy or ctx gives up.
// With a breaker configured, every attempt asks the endpoint's breaker first
// and feeds its outcome back; a denial returns immediately (terminal,
// wrapping resilience.ErrBreakerOpen) without touching the endpoint. The
// call counts once in the client metrics, however many attempts it takes.
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
		var e error
		resp, e = c.exchange(ctx, addr, req) // a failed attempt's resp is zero
		switch {
		case brk == nil:
		case e != nil && errors.Is(ctx.Err(), context.Canceled):
			brk.Release() // the caller gave up: no news about the endpoint
		default:
			// Transport failures and busy sheds (never terminal) count
			// against the endpoint; any other answer — acceptance or a
			// terminal rejection — is proof of life.
			brk.Record(e == nil || resilience.IsTerminal(e))
		}
		return e
	})
	return resp, err
}
