package nwsnet

import (
	"context"
	"fmt"
	"sync"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// Transport is the client surface the replication layer runs over: the
// calls ReplicaGroup needs to fan writes out and fail reads over, plus the
// digest/backfill pair the repair plane adds. *Client implements it against
// real TCP endpoints; LocalTransport implements it against in-process
// handlers with deterministic fault injection, which is how the grid fault
// campaign drives the production ReplicaGroup and Repairer code without
// sockets, goroutine races, or wall-clock timeouts.
type Transport interface {
	PingCtx(ctx context.Context, addr string) error
	StoreBatchCtx(ctx context.Context, addr string, stores []BatchStore) ([]error, error)
	FetchCtx(ctx context.Context, addr, key string, from, to float64, max int) ([][2]float64, error)
	FetchBatchCtx(ctx context.Context, addr string, fetches []BatchFetch) ([]FetchResult, error)
	SeriesCtx(ctx context.Context, addr string) ([]string, error)
	DigestsCtx(ctx context.Context, addr, key string) ([]SeriesDigest, error)
	BackfillCtx(ctx context.Context, addr, key string, points [][2]float64) error
	// The registry leg: the view placement's fallback when redirects cannot
	// settle a route, and the membership lifecycle a ClusterAgent runs.
	FetchViewCtx(ctx context.Context, nsAddr string, epoch uint64) (*cluster.View, error)
	JoinClusterCtx(ctx context.Context, nsAddr string, m cluster.Member) (cluster.View, error)
	RenewLeaseCtx(ctx context.Context, nsAddr, memberID string, epoch uint64) (*cluster.View, error)
	// BreakerState reports the client-side circuit breaker position for an
	// endpoint; transports without breakers answer BreakerClosed.
	BreakerState(addr string) resilience.BreakerState
}

var _ Transport = (*Client)(nil)

// LocalTransport routes Transport calls to in-process Handlers by address,
// with two injectable fault modes per address:
//
//   - down: every call fails without reaching the handler — a crashed or
//     stalled process (the state is flipped back on "restart"; the handler
//     keeps its memory, like a process restarting over a durable store).
//   - partitioned: the request reaches the handler and takes effect, but
//     the response is lost and the caller sees a transport error — the
//     in-process analog of the chaos proxy's one-directional partition
//     fault, exercising every "applied but unacknowledged" ambiguity.
//
// Calls execute synchronously on the caller's goroutine in call order, so a
// single-threaded harness over a LocalTransport is fully deterministic. The
// typed calls are the calls surface Client shares, so an answer classifies
// as busy, moved or terminal exactly as it would over the wire.
type LocalTransport struct {
	calls
	mu    sync.Mutex
	nodes map[string]*localTransportNode
}

type localTransportNode struct {
	h           Handler
	down        bool
	partitioned bool
}

// NewLocalTransport returns an empty transport; Register adds endpoints.
func NewLocalTransport() *LocalTransport {
	t := &LocalTransport{nodes: make(map[string]*localTransportNode)}
	t.calls = calls{call: t.exchange}
	return t
}

// Register binds an address to a handler (replacing any previous binding).
func (t *LocalTransport) Register(addr string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[addr] = &localTransportNode{h: h}
}

// SetDown marks an address crashed (true) or restarted (false).
func (t *LocalTransport) SetDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.nodes[addr]; n != nil {
		n.down = down
	}
}

// SetPartitioned puts an address behind an asymmetric partition: requests
// are applied, responses are lost.
func (t *LocalTransport) SetPartitioned(addr string, v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.nodes[addr]; n != nil {
		n.partitioned = v
	}
}

// exchange runs one request against an address, applying its fault mode,
// and classifies the answer exactly as a MuxConn's reader does for Client.
func (t *LocalTransport) exchange(_ context.Context, addr string, req Request) (Response, error) {
	t.mu.Lock()
	n := t.nodes[addr]
	var down, partitioned bool
	var h Handler
	if n != nil {
		h, down, partitioned = n.h, n.down, n.partitioned
	}
	t.mu.Unlock()
	if n == nil {
		return Response{}, fmt.Errorf("nwsnet: local transport: no handler for %q", addr)
	}
	if down {
		return Response{}, fmt.Errorf("nwsnet: local transport: %s is down", addr)
	}
	resp := h.Handle(req)
	if partitioned {
		// The handler ran — the write (if any) is applied — but the caller
		// never learns it.
		return Response{}, fmt.Errorf("nwsnet: local transport: %s partitioned: response lost", addr)
	}
	if err := respError(addr, resp); err != nil {
		return Response{}, err
	}
	resp.OK = true // as the server sets it on every answer without an error
	return resp, nil
}

// BreakerState implements Transport; the local transport has no breakers.
func (t *LocalTransport) BreakerState(string) resilience.BreakerState {
	return resilience.BreakerClosed
}

var _ Transport = (*LocalTransport)(nil)
