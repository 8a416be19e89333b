package nwsnet

import (
	"context"
	"errors"
	"fmt"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// calls is the typed call surface Client and LocalTransport share: each
// method builds one request, runs it through call and unpacks the answer.
// call is the embedding transport's exchange — the Client's retrying,
// breaker-guarded round trip, or LocalTransport's fault-injecting handler
// call — and returns the answer with its error already classified by
// respError, so busy, moved and terminal errors mean the same on both.
type calls struct {
	call func(ctx context.Context, addr string, req Request) (Response, error)
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
func (k calls) Ping(addr string) error { return k.PingCtx(context.Background(), addr) }

// PingCtx is Ping honoring a caller context for cancellation/deadline.
func (k calls) PingCtx(ctx context.Context, addr string) error {
	_, err := k.call(ctx, addr, Request{Op: OpPing})
	return err
}

// Register announces a component to the name server at nsAddr.
func (k calls) Register(nsAddr string, reg Registration) error {
	return k.RegisterCtx(context.Background(), nsAddr, reg)
}

// RegisterCtx is Register honoring a caller context.
func (k calls) RegisterCtx(ctx context.Context, nsAddr string, reg Registration) error {
	_, err := k.call(ctx, nsAddr, Request{Op: OpRegister, Reg: reg})
	return err
}

// Lookup resolves a component name at the name server.
func (k calls) Lookup(nsAddr, name string) (Registration, error) {
	return k.LookupCtx(context.Background(), nsAddr, name)
}

// LookupCtx is Lookup honoring a caller context.
func (k calls) LookupCtx(ctx context.Context, nsAddr, name string) (Registration, error) {
	resp, err := k.call(ctx, nsAddr, Request{Op: OpLookup, Reg: Registration{Name: name}})
	if err != nil {
		return Registration{}, err
	}
	if len(resp.Entries) != 1 {
		return Registration{}, fmt.Errorf("nwsnet: lookup %q returned %d entries", name, len(resp.Entries))
	}
	return resp.Entries[0], nil
}

// List enumerates components of the given kind ("" for all).
func (k calls) List(nsAddr string, kind Kind) ([]Registration, error) {
	return k.ListCtx(context.Background(), nsAddr, kind)
}

// ListCtx is List honoring a caller context.
func (k calls) ListCtx(ctx context.Context, nsAddr string, kind Kind) ([]Registration, error) {
	resp, err := k.call(ctx, nsAddr, Request{Op: OpList, Reg: Registration{Kind: kind}})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// Store appends points ([t, v] pairs) to a series on the memory server.
func (k calls) Store(memAddr, key string, points [][2]float64) error {
	return k.StoreCtx(context.Background(), memAddr, key, points)
}

// StoreCtx is Store honoring a caller context.
func (k calls) StoreCtx(ctx context.Context, memAddr, key string, points [][2]float64) error {
	_, err := k.call(ctx, memAddr, Request{Op: OpStore, Series: key, Points: points})
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
// request every delivery plane sends.
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

// openEnvelope checks an accepted batch envelope against the n sub-requests
// sent and returns its sub-responses. A sub-response count that does not
// match is a failure, because results align with requests by position alone.
func openEnvelope(addr string, resp Response, n int) ([]Response, error) {
	if len(resp.Batch) != n {
		return nil, fmt.Errorf("nwsnet: %s: batch returned %d sub-responses, want %d", addr, len(resp.Batch), n)
	}
	return resp.Batch, nil
}

// StoreBatch stores several series in one round trip via the batch
// envelope. The returned slice has one entry per input — nil on success,
// the server's rejection otherwise, classified like a top-level answer so
// per-sub busy sheds stay retryable and per-sub redirects stay typed; the
// second return value reports envelope-level failures (transport errors, a
// malformed batch), in which case the per-sub slice is nil.
func (k calls) StoreBatch(memAddr string, stores []BatchStore) ([]error, error) {
	return k.StoreBatchCtx(context.Background(), memAddr, stores)
}

// StoreBatchCtx is StoreBatch honoring a caller context.
func (k calls) StoreBatchCtx(ctx context.Context, memAddr string, stores []BatchStore) ([]error, error) {
	if len(stores) == 0 {
		return nil, nil
	}
	resp, err := k.call(ctx, memAddr, storeEnvelope(stores))
	if err != nil {
		return nil, err
	}
	subs, err := openEnvelope(memAddr, resp, len(stores))
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(subs))
	for i, r := range subs {
		errs[i] = respError(memAddr, r)
	}
	return errs, nil
}

// FetchBatch reads several series ranges in one round trip via the batch
// envelope. The returned slice has one entry per input; per-sub rejections
// (an unknown series, say) land in that entry's Err without failing the
// others. The second return value reports envelope-level failures.
func (k calls) FetchBatch(memAddr string, fetches []BatchFetch) ([]FetchResult, error) {
	return k.FetchBatchCtx(context.Background(), memAddr, fetches)
}

// FetchBatchCtx is FetchBatch honoring a caller context.
func (k calls) FetchBatchCtx(ctx context.Context, memAddr string, fetches []BatchFetch) ([]FetchResult, error) {
	if len(fetches) == 0 {
		return nil, nil
	}
	resp, err := k.call(ctx, memAddr, fetchEnvelope(fetches))
	if err != nil {
		return nil, err
	}
	subs, err := openEnvelope(memAddr, resp, len(fetches))
	if err != nil {
		return nil, err
	}
	out := make([]FetchResult, len(subs))
	for i, r := range subs {
		if err := respError(memAddr, r); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Points = r.Points
	}
	return out, nil
}

// Fetch reads back points of a series with t in [from, to) (to == 0 means
// "through the latest point"), limited to the most recent max points when
// max > 0.
func (k calls) Fetch(memAddr, key string, from, to float64, max int) ([][2]float64, error) {
	return k.FetchCtx(context.Background(), memAddr, key, from, to, max)
}

// FetchCtx is Fetch honoring a caller context.
func (k calls) FetchCtx(ctx context.Context, memAddr, key string, from, to float64, max int) ([][2]float64, error) {
	resp, err := k.call(ctx, memAddr, Request{Op: OpFetch, Series: key, From: from, To: to, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// Digests asks a memory server for anti-entropy series digests: all series
// when key is "", else just that series (see docs/PROTOCOL.md §9).
func (k calls) Digests(memAddr, key string) ([]SeriesDigest, error) {
	return k.DigestsCtx(context.Background(), memAddr, key)
}

// DigestsCtx is Digests honoring a caller context.
func (k calls) DigestsCtx(ctx context.Context, memAddr, key string) ([]SeriesDigest, error) {
	resp, err := k.call(ctx, memAddr, Request{Op: OpDigest, Series: key})
	if err != nil {
		return nil, err
	}
	return resp.Digests, nil
}

// Backfill merge-inserts points behind a series' frontier on a memory
// server — the delivery path for nwsctl repair's pushes, where the ordinary
// store path would dedup old timestamps away.
func (k calls) Backfill(memAddr, key string, points [][2]float64) error {
	return k.BackfillCtx(context.Background(), memAddr, key, points)
}

// BackfillCtx is Backfill honoring a caller context.
func (k calls) BackfillCtx(ctx context.Context, memAddr, key string, points [][2]float64) error {
	_, err := k.call(ctx, memAddr, Request{Op: OpBackfill, Series: key, Points: points})
	return err
}

// Series lists the series keys a memory server holds.
func (k calls) Series(memAddr string) ([]string, error) {
	return k.SeriesCtx(context.Background(), memAddr)
}

// SeriesCtx is Series honoring a caller context.
func (k calls) SeriesCtx(ctx context.Context, memAddr string) ([]string, error) {
	resp, err := k.call(ctx, memAddr, Request{Op: OpSeries})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Forecast asks a forecaster service for the one-step-ahead prediction of a
// series.
func (k calls) Forecast(fcAddr, key string) (ForecastResult, error) {
	return k.ForecastCtx(context.Background(), fcAddr, key)
}

// ForecastCtx is Forecast honoring a caller context.
func (k calls) ForecastCtx(ctx context.Context, fcAddr, key string) (ForecastResult, error) {
	resp, err := k.call(ctx, fcAddr, Request{Op: OpForecast, Series: key})
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
func (k calls) JoinCluster(nsAddr string, m cluster.Member) (cluster.View, error) {
	return k.JoinClusterCtx(context.Background(), nsAddr, m)
}

// JoinClusterCtx is JoinCluster honoring a caller context.
func (k calls) JoinClusterCtx(ctx context.Context, nsAddr string, m cluster.Member) (cluster.View, error) {
	resp, err := k.call(ctx, nsAddr, Request{Op: OpJoin, Member: &m})
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
func (k calls) RenewLease(nsAddr, memberID string, epoch uint64) (*cluster.View, error) {
	return k.RenewLeaseCtx(context.Background(), nsAddr, memberID, epoch)
}

// RenewLeaseCtx is RenewLease honoring a caller context.
func (k calls) RenewLeaseCtx(ctx context.Context, nsAddr, memberID string, epoch uint64) (*cluster.View, error) {
	resp, err := k.call(ctx, nsAddr, Request{Op: OpLease, Member: &cluster.Member{ID: memberID}, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.View, nil
}

// FetchView fetches the registry's membership view. epoch is the view the
// caller already holds: when it is still current the registry answers "not
// modified" and FetchView returns (nil, nil). Pass 0 to always fetch.
func (k calls) FetchView(nsAddr string, epoch uint64) (*cluster.View, error) {
	return k.FetchViewCtx(context.Background(), nsAddr, epoch)
}

// FetchViewCtx is FetchView honoring a caller context.
func (k calls) FetchViewCtx(ctx context.Context, nsAddr string, epoch uint64) (*cluster.View, error) {
	resp, err := k.call(ctx, nsAddr, Request{Op: OpView, Epoch: epoch})
	if err != nil {
		return nil, err
	}
	return resp.View, nil
}
