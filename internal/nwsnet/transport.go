package nwsnet

import (
	"context"
	"errors"
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
// single-threaded harness over a LocalTransport is fully deterministic.
type LocalTransport struct {
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
	return &LocalTransport{nodes: make(map[string]*localTransportNode)}
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

// exchange runs one request against an address, applying its fault mode.
func (t *LocalTransport) exchange(addr string, req Request) (Response, error) {
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
	return resp, nil
}

// PingCtx implements Transport.
func (t *LocalTransport) PingCtx(_ context.Context, addr string) error {
	resp, err := t.exchange(addr, Request{Op: OpPing})
	if err != nil {
		return err
	}
	return respError(addr, resp)
}

// StoreBatchCtx implements Transport with Client.StoreBatchCtx semantics.
func (t *LocalTransport) StoreBatchCtx(_ context.Context, addr string, stores []BatchStore) ([]error, error) {
	if len(stores) == 0 {
		return nil, nil
	}
	resp, err := t.exchange(addr, storeEnvelope(stores))
	if err != nil {
		return nil, err
	}
	return storeResults(addr, resp, len(stores))
}

// FetchCtx implements Transport.
func (t *LocalTransport) FetchCtx(_ context.Context, addr, key string, from, to float64, max int) ([][2]float64, error) {
	resp, err := t.exchange(addr, Request{Op: OpFetch, Series: key, From: from, To: to, Max: max})
	if err != nil {
		return nil, err
	}
	if err := respError(addr, resp); err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// FetchBatchCtx implements Transport with Client.FetchBatchCtx semantics.
func (t *LocalTransport) FetchBatchCtx(_ context.Context, addr string, fetches []BatchFetch) ([]FetchResult, error) {
	if len(fetches) == 0 {
		return nil, nil
	}
	resp, err := t.exchange(addr, fetchEnvelope(fetches))
	if err != nil {
		return nil, err
	}
	return fetchResults(addr, resp, len(fetches))
}

// SeriesCtx implements Transport.
func (t *LocalTransport) SeriesCtx(_ context.Context, addr string) ([]string, error) {
	resp, err := t.exchange(addr, Request{Op: OpSeries})
	if err != nil {
		return nil, err
	}
	if err := respError(addr, resp); err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// DigestsCtx implements Transport.
func (t *LocalTransport) DigestsCtx(_ context.Context, addr, key string) ([]SeriesDigest, error) {
	resp, err := t.exchange(addr, Request{Op: OpDigest, Series: key})
	if err != nil {
		return nil, err
	}
	if err := respError(addr, resp); err != nil {
		return nil, err
	}
	return resp.Digests, nil
}

// BackfillCtx implements Transport.
func (t *LocalTransport) BackfillCtx(_ context.Context, addr, key string, points [][2]float64) error {
	resp, err := t.exchange(addr, Request{Op: OpBackfill, Series: key, Points: points})
	if err != nil {
		return err
	}
	return respError(addr, resp)
}

// FetchViewCtx implements Transport.
func (t *LocalTransport) FetchViewCtx(_ context.Context, nsAddr string, epoch uint64) (*cluster.View, error) {
	return t.view(nsAddr, Request{Op: OpView, Epoch: epoch})
}

// JoinClusterCtx implements Transport.
func (t *LocalTransport) JoinClusterCtx(_ context.Context, nsAddr string, m cluster.Member) (cluster.View, error) {
	v, err := t.view(nsAddr, Request{Op: OpJoin, Member: &m})
	if err != nil {
		return cluster.View{}, err
	}
	if v == nil {
		return cluster.View{}, errors.New("nwsnet: join returned no view")
	}
	return *v, nil
}

// RenewLeaseCtx implements Transport.
func (t *LocalTransport) RenewLeaseCtx(_ context.Context, nsAddr, memberID string, epoch uint64) (*cluster.View, error) {
	return t.view(nsAddr, Request{Op: OpLease, Member: &cluster.Member{ID: memberID}, Epoch: epoch})
}

// view runs one registry request and returns the view it answers with.
func (t *LocalTransport) view(nsAddr string, req Request) (*cluster.View, error) {
	resp, err := t.exchange(nsAddr, req)
	if err != nil {
		return nil, err
	}
	return resp.View, respError(nsAddr, resp)
}

// BreakerState implements Transport; the local transport has no breakers.
func (t *LocalTransport) BreakerState(string) resilience.BreakerState {
	return resilience.BreakerClosed
}

var _ Transport = (*LocalTransport)(nil)
