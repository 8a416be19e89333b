package nwsnet

import (
	"context"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// ClusterAgent runs a shard server's membership lifecycle against the
// cluster registry:
//
//  1. Join in the joining state — takes a lease without entering the ring.
//  2. Repair — an ownership-filtered anti-entropy round (see repair) pulls
//     the history of every series this node will own from the members that
//     hold it, while writes keep flowing to the old owners.
//  3. Activate — re-join in the active state, which bumps the view epoch
//     and atomically moves the node's key ranges to it.
//  4. Repair again — catch the writes that landed on the old owners between
//     the first round and the activation.
//
// After that a renewal loop heartbeats the lease and runs one more repair
// round per renewal. A renewal answer carrying a view means the epoch moved
// (a member activated or a lease expired): the agent adopts it first — the
// death-takeover path, where a dead owner's ranges fall to the ring
// successors and their next round pulls the history from the survivors.
// Rounds on an unchanged epoch close the stale-owner window: previous owners
// keep acknowledging writes under the old view until their own next
// renewal, and nothing else would ever copy those points to the new owner.
// A terminal "unknown member" renewal means the lease lapsed (or the
// registry restarted); the agent re-runs the join lifecycle from scratch.
type ClusterAgent struct {
	tr       Transport
	client   *Client // closed by Close; nil when the transport is the caller's
	nsAddr   string
	node     *ClusterNode
	repairer *Repairer // nil for members that hold no partitioned store
	self     cluster.Member
	logger   *log.Logger

	mu        sync.Mutex
	epoch     uint64
	viewHooks []func(*cluster.View)

	renewals loop
}

// NewClusterAgent builds the lifecycle agent for the node guarding member
// self (self.State is overwritten by the lifecycle), registering with the
// registry at nsAddr over tr (nil selects a default client, which Close
// releases). node may be nil for members that hold no partitioned store
// (forecaster shards): they run the same lease lifecycle but skip the
// repair rounds.
func NewClusterAgent(tr Transport, nsAddr string, self cluster.Member, node *ClusterNode) *ClusterAgent {
	a := &ClusterAgent{tr: tr, nsAddr: nsAddr, node: node, self: self}
	if tr == nil {
		a.client = NewClient(0)
		a.tr = a.client
	}
	if node != nil && self.Kind == string(KindMemory) {
		a.repairer = NewRepairer(a.tr, node.Memory(), nil)
	}
	return a
}

// SetLogger directs the agent's lifecycle diagnostics to l (nil silences
// them, the default).
func (a *ClusterAgent) SetLogger(l *log.Logger) { a.logger = l }

func (a *ClusterAgent) logf(format string, args ...any) {
	if a.logger != nil {
		a.logger.Printf("nwsnet: cluster %s: "+format, append([]any{a.self.ID}, args...)...)
	}
}

// Epoch returns the view epoch the agent last adopted.
func (a *ClusterAgent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// OnView registers fn to run after every view the agent adopts (join,
// renew, rebalance). Hooks run outside the agent's lock, in registration
// order, on the lifecycle goroutine; members with no partitioned store use
// this to react to ownership moves (e.g. a forecaster handing off
// subscriptions). Register before Start.
func (a *ClusterAgent) OnView(fn func(*cluster.View)) {
	if fn == nil {
		return
	}
	a.mu.Lock()
	a.viewHooks = append(a.viewHooks, fn)
	a.mu.Unlock()
}

// adopt installs a view into the node's guard and the agent's epoch, then
// runs the registered view hooks.
func (a *ClusterAgent) adopt(v *cluster.View) {
	if v == nil {
		return
	}
	if a.node != nil {
		a.node.AdoptView(*v)
	}
	a.mu.Lock()
	if v.Epoch > a.epoch {
		a.epoch = v.Epoch
	}
	hooks := a.viewHooks
	a.mu.Unlock()
	for _, fn := range hooks {
		fn(v)
	}
}

// Join runs the two-phase join: lease in the joining state, repair the
// history this node will own, activate (epoch bump), and repair once more
// to drain the activation window.
func (a *ClusterAgent) Join(ctx context.Context) error {
	m := a.self
	m.State = cluster.StateJoining
	v, err := a.tr.JoinClusterCtx(ctx, a.nsAddr, m)
	if err != nil {
		return fmt.Errorf("nwsnet: cluster join %s: %w", a.self.ID, err)
	}
	a.adopt(&v)
	a.logf("joined (epoch %d, %d members); pulling owned history", v.Epoch, len(v.Members))
	a.repair(ctx, &v, true)
	m.State = cluster.StateActive
	av, err := a.tr.JoinClusterCtx(ctx, a.nsAddr, m)
	if err != nil {
		return fmt.Errorf("nwsnet: cluster activate %s: %w", a.self.ID, err)
	}
	a.adopt(&av)
	a.logf("active (epoch %d); draining activation window", av.Epoch)
	a.repair(ctx, &av, true)
	return nil
}

// Renew heartbeats the lease once, adopts the new view when the epoch
// moved, and runs a repair round either way. It reports whether the member
// must re-join (the registry no longer knows it) and any transport error.
func (a *ClusterAgent) Renew(ctx context.Context) (rejoin bool, err error) {
	v, err := a.tr.RenewLeaseCtx(ctx, a.nsAddr, a.self.ID, a.Epoch())
	if err != nil {
		// A terminal answer that is not a shed means the registry does not
		// know us: the lease lapsed or the registry restarted. Only a fresh
		// join can recover.
		return resilience.IsTerminal(err) && !IsBusy(err), err
	}
	if v != nil {
		a.adopt(v)
		a.logf("epoch moved to %d; repairing owned ranges", v.Epoch)
	}
	a.repair(ctx, v, v != nil)
	return false, nil
}

// repair runs one anti-entropy round under view v (nil: the view the node
// holds) — the same digest-compare, tail-pull, refetch-on-mismatch round a
// fixed replica's Repairer runs, with the ownership function applied: the
// peers are the view's other memory members, the series those this node
// owns once v counts it active. After a view change this is the rebalancing
// handoff, and the points it inserts are counted as such; peers that are
// down are skipped — with replicated ownership the surviving owner of each
// range serves the history.
func (a *ClusterAgent) repair(ctx context.Context, v *cluster.View, viewChanged bool) {
	if a.repairer == nil {
		return
	}
	if v == nil {
		if v = a.node.View(); v == nil {
			return
		}
	}
	target := a.projectActive(*v)
	ring := target.Ring(string(KindMemory))
	rf := target.Config.Normalize().Replication
	var peers []string
	for _, m := range v.Members {
		if m.ID != a.self.ID && m.Kind == string(KindMemory) && len(m.Endpoints()) > 0 {
			peers = append(peers, m.Endpoints()[0])
		}
	}
	n, err := a.repairer.RepairFrom(ctx, peers, func(series string) bool {
		return slices.Contains(ring.Owners(series, rf), a.self.ID)
	})
	if err != nil {
		a.logf("repair round incomplete: %v", err)
	}
	if viewChanged && n > 0 {
		mClusterHandoffPoints.Add(uint64(n))
		mClusterHandoffBytes.Add(uint64(n) * 16) // one wire point is two packed float64s
		a.logf("handoff backfilled %d points", n)
	}
}

// projectActive returns v with this agent's member forced active, so the
// pre-activation repair computes the ownership the activation is about to
// create.
func (a *ClusterAgent) projectActive(v cluster.View) cluster.View {
	out := v.Clone()
	for i := range out.Members {
		if out.Members[i].ID == a.self.ID {
			out.Members[i].State = cluster.StateActive
			return out
		}
	}
	m := a.self
	m.State = cluster.StateActive
	out.Members = append(out.Members, m)
	return out
}

// Start joins the cluster and launches the background renewal loop,
// heartbeating every interval (a third of the registry TTL is the
// conventional choice). A failed renewal or re-join is logged, and the loop
// keeps running — and re-joins — after it. Stop terminates the loop; a
// stopped agent does not start again.
func (a *ClusterAgent) Start(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	if err := a.Join(ctx); err != nil {
		return err
	}
	if !a.renewals.start(interval, func() { a.renewOrRejoin(ctx) }) {
		return fmt.Errorf("nwsnet: cluster agent %s already started or stopped", a.self.ID)
	}
	return nil
}

// renewOrRejoin is one pass of the renewal loop.
func (a *ClusterAgent) renewOrRejoin(ctx context.Context) {
	rejoin, err := a.Renew(ctx)
	if err != nil {
		a.logf("lease renewal failed: %v", err)
	}
	if rejoin {
		a.logf("lease lost; re-joining")
		if err := a.Join(ctx); err != nil {
			a.logf("re-join failed: %v", err)
		}
	}
}

// Stop terminates a Start loop and waits for it to exit. Safe without a
// prior Start.
func (a *ClusterAgent) Stop() { a.renewals.halt() }

// Close releases the pooled connections of a client the agent owns; a no-op
// over a caller's Transport.
func (a *ClusterAgent) Close() error {
	if a.client == nil {
		return nil
	}
	return a.client.Close()
}
