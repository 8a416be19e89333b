package nwsnet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"nwscpu/internal/resilience"
)

// clusterRouteAttempts bounds how many rounds one operation may spend
// chasing ownership redirects, each re-resolving owners under the newest
// adopted view. Two redirects in a row already mean the view changed twice
// mid-operation; a store's last round asks the registry instead.
const clusterRouteAttempts = 3

// ReplicaGroup is the quorum router every deployment writes and reads
// through. Its only deployment-specific part is the ownership function
// owners: key → owner endpoints in preference order.
//
//   - Fixed placement (NewReplicaGroup): every key is owned by the
//     configured replicas, in configuration order.
//   - View placement (NewReplicaGroupCluster): a key is owned by its ring
//     owners under the cached membership view. A node answering CodeMoved
//     embeds its view, which the router adopts before re-routing; the
//     registry is consulted only to bootstrap and as the last resort.
//
// Everything else is shared. A write goes to every owner of its key and
// succeeds once a quorum acknowledges; owners that missed it are marked
// unhealthy (nws_replica_healthy, per-process observation), and the
// Repairer beside each of them closes the gap (docs/ARCHITECTURE.md,
// "Repair plane"). Reads fail over across a key's owners. A group of one
// behaves exactly like a direct client.
type ReplicaGroup struct {
	tr     Transport
	client *Client   // closed by Close; nil when the transport is the caller's
	quorum int       // acks a sub-store needs; 0 = a majority of its own owners
	fixed  []string  // fixed placement: every key's owners
	nsAddr string    // view placement: the registry behind table
	table  viewTable // view placement: the newest adopted view

	mu   sync.Mutex
	down map[string]bool // endpoints last observed failing
}

// ReplicaHealth is one replica's last observed state.
type ReplicaHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// NewReplicaGroup groups the memory servers at addrs behind client (nil
// selects a default client), which Close releases. quorum <= 0 selects a
// majority; a quorum larger than the group clamps to it. Replicas start healthy.
func NewReplicaGroup(client *Client, addrs []string, quorum int) *ReplicaGroup {
	if client == nil {
		client = NewClient(0)
	}
	g := NewReplicaGroupTransport(client, addrs, quorum)
	g.client = client
	return g
}

// NewReplicaGroupTransport is NewReplicaGroup over any Transport — the TCP
// client or an in-process LocalTransport under a fault harness. Close is a
// no-op for groups built this way; the transport stays its owner's.
func NewReplicaGroupTransport(tr Transport, addrs []string, quorum int) *ReplicaGroup {
	g := NewReplicaGroupCluster(tr, "") // no registry: the owners are fixed
	g.fixed = append([]string{}, addrs...)
	for _, a := range addrs {
		mReplicaHealthy.With(a).Set(1)
	}
	if quorum <= 0 {
		quorum = len(addrs)/2 + 1
	}
	g.quorum = min(quorum, len(addrs))
	return g
}

// NewReplicaGroupCluster routes over the partitioned cluster whose registry
// is at nsAddr: a key's owners are its ring owners under the membership
// view (bootstrapped from the registry by the first operation) and a write
// needs a majority of them. The transport stays the caller's to close.
func NewReplicaGroupCluster(tr Transport, nsAddr string) *ReplicaGroup {
	return &ReplicaGroup{tr: tr, nsAddr: nsAddr, down: make(map[string]bool)}
}

// owners is the ownership function: key's owner endpoints in preference
// order. The fixed placement returns the configured slice itself; callers
// must not modify the result.
func (g *ReplicaGroup) owners(ctx context.Context, key string) ([]string, error) {
	if g.nsAddr == "" {
		return g.fixed, nil
	}
	if err := g.bootstrap(ctx); err != nil {
		return nil, err
	}
	v, ring := g.table.get()
	var out []string
	if ring != nil {
		for _, id := range ring.Owners(key, v.Config.Normalize().Replication) {
			if m, ok := v.Member(id); ok && len(m.Endpoints()) > 0 {
				out = append(out, m.Endpoints()[0])
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("nwsnet: no active memory member owns %q (epoch %d)", key, v.Epoch)
	}
	return out, nil
}

// endpoints returns every endpoint the group may write to: the configured
// replicas, or the view's active memory members (none before the bootstrap).
func (g *ReplicaGroup) endpoints() []string {
	if g.nsAddr == "" {
		return g.fixed
	}
	var out []string
	if v, _ := g.table.get(); v != nil {
		for _, m := range v.Active(string(KindMemory)) {
			out = append(out, m.Endpoints()...)
		}
	}
	return out
}

// bootstrap fetches the registry's view when none is held yet.
func (g *ReplicaGroup) bootstrap(ctx context.Context) error {
	if v, _ := g.table.get(); v != nil {
		return nil
	}
	return g.refresh(ctx)
}

// refresh adopts the registry's current view.
func (g *ReplicaGroup) refresh(ctx context.Context) error {
	v, err := g.tr.FetchViewCtx(ctx, g.nsAddr, 0)
	if err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("nwsnet: registry %s returned no view", g.nsAddr)
	}
	mClusterRefreshRegistry.Inc()
	g.table.adopt(*v)
	return nil
}

// redirected reports whether err is an ownership redirect this router can
// follow, adopting the view it carries (one that carries none is settled by
// the last round's registry refresh). A fixed placement has nowhere else to
// route: a redirect is just that replica's rejection.
func (g *ReplicaGroup) redirected(err error) bool {
	me, ok := IsMoved(err)
	if !ok || g.nsAddr == "" {
		return false
	}
	if me.View != nil {
		mClusterRefreshRedirect.Inc()
		g.table.adopt(*me.View)
	}
	return true
}

// need returns how many of a key's owners must acknowledge a write.
func (g *ReplicaGroup) need(owners []string) int {
	if g.quorum > 0 {
		return g.quorum
	}
	return len(owners)/2 + 1
}

// mark records one observation of an endpoint's health.
func (g *ReplicaGroup) mark(addr string, ok bool) {
	g.mu.Lock()
	g.down[addr] = !ok
	g.mu.Unlock()
	v := 0.0
	if ok {
		v = 1
	}
	mReplicaHealthy.With(addr).Set(v)
}

// ordered returns owners in read-failover order — the one place replicas
// are ranked: healthy before unhealthy, and endpoints whose circuit breaker
// is open last (the client has fresh evidence against them, and trying them
// first spends the failover budget on denials); preference order within.
func (g *ReplicaGroup) ordered(owners []string) []string {
	out := make([]string, 0, len(owners))
	var sick, open []string
	g.mu.Lock()
	for _, a := range owners {
		switch {
		case g.tr.BreakerState(a) == resilience.BreakerOpen:
			open = append(open, a)
		case g.down[a]:
			sick = append(sick, a)
		default:
			out = append(out, a)
		}
	}
	g.mu.Unlock()
	return append(append(out, sick...), open...)
}

// Health reports the last observed state of every endpoint.
func (g *ReplicaGroup) Health() []ReplicaHealth {
	eps := g.endpoints()
	out := make([]ReplicaHealth, len(eps))
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, a := range eps {
		out[i] = ReplicaHealth{Addr: a, Healthy: !g.down[a]}
	}
	return out
}

// isBreakerDenial reports whether err is a call the client's circuit
// breaker refused without attempting: no observation of the replica, so
// health ignores it (or an open breaker would re-confirm the mark it caused).
func isBreakerDenial(err error) bool {
	return errors.Is(err, resilience.ErrBreakerOpen)
}

// keep records err in *slot unless an earlier one is already there.
func keep(slot *error, err error) {
	if *slot == nil {
		*slot = err
	}
}

// StoreBatch sends every sub-store to all owners of its key: one batch
// envelope per owner endpoint, endpoints in first-seen order and sent
// sequentially (so failure sequences are deterministic under test
// schedules). A sub-store succeeds once its quorum acknowledges; owners that
// missed it are marked unhealthy and left to their repairers. Redirected
// sub-stores are re-routed
// under the adopted view, the last round under the registry's. The returned
// slice has one entry per input — nil when that sub-store met its quorum;
// the overall error is non-nil when any did not.
//
// Redelivery is safe end to end: the memory server skips points at or
// before each series' stored frontier, so a batch retried after a
// timed-out-but-applied round converges to exactly one copy of each point
// on every owner instead of wedging on "out-of-order append".
func (g *ReplicaGroup) StoreBatch(ctx context.Context, stores []BatchStore) ([]error, error) {
	n := len(stores)
	if n == 0 {
		return nil, nil
	}
	out := make([]error, n)    // first failure seen per sub; nil once its quorum is met
	acks := make([]int, n)     // this round's acknowledgements
	own := make([][]string, n) // this round's owners of each pending sub
	done := make([]bool, n)
	idx, sub := make([]int, 0, n), make([]BatchStore, 0, n) // one envelope's subs, reused
	pending := n
	var firstErr error
	for round, last := 0, false; ; round++ {
		addrs := make([]string, 0, 8) // on the stack for any usual owner count
		for i := range stores {
			if done[i] {
				continue
			}
			o, err := g.owners(ctx, stores[i].Series)
			if err != nil {
				keep(&out[i], err)
			}
			acks[i], own[i] = 0, o
			for _, a := range o {
				if !slices.Contains(addrs, a) {
					addrs = append(addrs, a)
				}
			}
		}
		redirected := false
		for _, addr := range addrs {
			idx, sub = idx[:0], sub[:0]
			for i := range own {
				if slices.Contains(own[i], addr) {
					idx, sub = append(idx, i), append(sub, stores[i])
				}
			}
			errs, err := g.tr.StoreBatchCtx(ctx, addr, sub)
			if err != nil {
				keep(&firstErr, err)
				if g.redirected(err) {
					redirected = true
					continue
				}
				if !isBreakerDenial(err) {
					g.mark(addr, false)
				}
				continue
			}
			clean := true
			for j, e := range errs {
				i := idx[j]
				if e == nil {
					acks[i]++
					continue
				}
				keep(&out[i], e)
				if g.redirected(e) {
					redirected = true
					continue
				}
				clean = false
			}
			g.mark(addr, clean)
		}
		for i := range stores {
			if own[i] != nil && acks[i] >= g.need(own[i]) {
				done[i], own[i], out[i] = true, nil, nil
				pending--
			}
		}
		if pending == 0 || g.nsAddr == "" || last {
			break
		}
		if !redirected || round == clusterRouteAttempts-2 {
			// Out of stale-view evidence, or of rounds to chase it: the next
			// round is the last, under the registry's answer.
			last = true
			g.refresh(ctx) //nolint:errcheck // best effort; the held view still routes
		}
	}
	if pending == 0 {
		return out, nil
	}
	keep(&firstErr, errors.New("no owner to acknowledge it"))
	for i := range stores {
		if done[i] {
			continue
		}
		mReplicaQuorumFailures.Inc()
		keep(&out[i], firstErr)
		out[i] = fmt.Errorf("nwsnet: replicated store %q: %d/%d acks, quorum %d: %w",
			stores[i].Series, acks[i], len(own[i]), g.need(own[i]), out[i])
	}
	return out, fmt.Errorf("nwsnet: replicated batch store: %d/%d sub-stores missed quorum", pending, n)
}

// read runs op against key's owners in failover order until one succeeds,
// re-resolving the owners after a redirect. Transport failures demote the
// endpoint; protocol-level rejections (the endpoint answered) leave it
// healthy but still fall through, because a diverged owner may simply not
// hold the series yet. Failovers past the preferred owner are counted.
func (g *ReplicaGroup) read(ctx context.Context, key string, op func(addr string) error) error {
	// A denial or redirect observes no endpoint: reported only failing all else.
	var firstErr, passedErr error
	for attempt, redirected := 0, true; redirected && attempt < clusterRouteAttempts; attempt++ {
		owners, err := g.owners(ctx, key)
		if err != nil {
			keep(&firstErr, err)
			break
		}
		redirected = false
		for i, addr := range g.ordered(owners) {
			err := op(addr)
			if err == nil {
				g.mark(addr, true)
				if i > 0 {
					mReplicaFailovers.Inc()
				}
				return nil
			}
			switch {
			case g.redirected(err):
				redirected = true
				keep(&passedErr, err)
			case isBreakerDenial(err):
				keep(&passedErr, err)
			default:
				// Protocol errors are exactly the terminal class (Client.do).
				g.mark(addr, resilience.IsTerminal(err))
				keep(&firstErr, err)
			}
		}
	}
	keep(&firstErr, passedErr)
	return firstErr
}

// Fetch reads a series range from its owners with failover (see
// Client.FetchCtx for the range semantics).
func (g *ReplicaGroup) Fetch(ctx context.Context, key string, from, to float64, max int) (pts [][2]float64, err error) {
	err = g.read(ctx, key, func(addr string) (e error) {
		pts, e = g.tr.FetchCtx(ctx, addr, key, from, to, max)
		return e
	})
	return pts, err
}

// FetchBatch reads several series ranges, each from its key's owners in
// failover order; sub-requests due next at the same endpoint share a round
// trip. An endpoint's transport failure demotes it and moves its subs on to
// their next owner, a per-sub rejection (a diverged owner missing one
// series, say) retries just that sub downstream, redirects re-route. One
// result per input; the error is non-nil only when no endpoint answered.
func (g *ReplicaGroup) FetchBatch(ctx context.Context, fetches []BatchFetch) ([]FetchResult, error) {
	n := len(fetches)
	if n == 0 {
		return nil, nil
	}
	out := make([]FetchResult, n)
	left := make([][]string, n) // owners each pending sub has yet to try, in failover order
	done := make([]bool, n)
	idx, sub := make([]int, 0, n), make([]BatchFetch, 0, n) // one envelope's subs, reused
	answered, tried := false, 0
	var firstErr error
	for attempt, redirected := 0, true; redirected && attempt < clusterRouteAttempts; attempt++ {
		var lastOwners, lastOrder []string
		for i := range fetches {
			if done[i] {
				continue
			}
			o, err := g.owners(ctx, fetches[i].Series)
			if err != nil {
				keep(&out[i].Err, err)
				keep(&firstErr, err)
				continue
			}
			// Subs sharing an owner set (all, when fixed) share one ranking.
			if len(o) == 0 || len(o) != len(lastOwners) || &o[0] != &lastOwners[0] {
				lastOwners, lastOrder = o, g.ordered(o)
			}
			left[i] = lastOrder
		}
		redirected = false
		for {
			// The endpoint the first pending sub tries next, with every
			// other pending sub due there too.
			addr := ""
			idx, sub = idx[:0], sub[:0]
			for i, o := range left {
				if len(o) > 0 && (addr == "" || o[0] == addr) {
					addr, left[i] = o[0], o[1:]
					idx, sub = append(idx, i), append(sub, fetches[i])
				}
			}
			if addr == "" {
				break
			}
			results, err := g.tr.FetchBatchCtx(ctx, addr, sub)
			tried++
			if err != nil {
				keep(&firstErr, err)
				if g.redirected(err) {
					redirected = true
				} else if !isBreakerDenial(err) {
					g.mark(addr, resilience.IsTerminal(err))
				}
				continue
			}
			g.mark(addr, true)
			if !answered && tried > 1 {
				mReplicaFailovers.Inc()
			}
			answered = true
			for j, res := range results {
				i := idx[j]
				if res.Err != nil {
					redirected = g.redirected(res.Err) || redirected
					keep(&out[i].Err, res.Err)
					continue
				}
				out[i], left[i], done[i] = res, nil, true
			}
		}
	}
	if !answered {
		return nil, firstErr
	}
	return out, nil
}

// Series lists stored series keys. Fixed replicas each hold every series,
// so the first to answer (in failover order) speaks for the group; a
// partitioned cluster's listing is the union over its active memory members.
func (g *ReplicaGroup) Series(ctx context.Context) (names []string, err error) {
	if g.nsAddr == "" {
		err = g.read(ctx, "", func(addr string) (e error) {
			names, e = g.tr.SeriesCtx(ctx, addr)
			return e
		})
		return names, err
	}
	if err = g.bootstrap(ctx); err != nil {
		return nil, err
	}
	eps := g.endpoints()
	if len(eps) == 0 {
		return nil, errors.New("nwsnet: no active memory members")
	}
	answered := false
	for _, addr := range eps {
		part, e := g.tr.SeriesCtx(ctx, addr)
		if e != nil {
			keep(&err, e)
			continue
		}
		answered = true
		names = append(names, part...)
	}
	if !answered {
		return nil, err
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}

// Close releases the client NewReplicaGroup was given; otherwise a no-op.
func (g *ReplicaGroup) Close() error {
	if g.client == nil {
		return nil
	}
	return g.client.Close()
}
