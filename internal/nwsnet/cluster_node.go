package nwsnet

import (
	"slices"
	"sync"

	"nwscpu/internal/nwsnet/cluster"
)

// ClusterNode wraps a shard's Memory with the ownership guard of the
// partitioned deployment: requests for series keys the node does not own
// under its current membership view are answered with a CodeMoved redirect
// carrying that view, so a client holding a stale routing table refreshes
// and re-routes in one round trip instead of polling the registry.
//
// The guard is asymmetric on purpose:
//
//   - Stores of unowned keys always redirect. Accepting them would strand
//     points on a node clients will stop reading from.
//   - Fetches of unowned keys are still served when the node holds the
//     series locally. Rebalancing handoff depends on this: after an epoch
//     bump moves a range, the new owner backfills by fetching the history
//     from the previous owner — who by then no longer owns it. Serving what
//     the node has also keeps reads available during the transition window;
//     only a fetch of a key the node neither owns nor holds redirects.
//
// Ops without a series key (ping, series listing) pass through untouched,
// which is also what keeps cluster-unaware clients working against a
// cluster-enabled node. A node with no adopted view (single-node
// deployment, or an agent that has not joined yet) guards nothing.
type ClusterNode struct {
	mem   *Memory
	table viewTable

	mu sync.RWMutex
	id string
}

// viewTable holds the newest adopted membership view with its memory ring
// built once — what the node's ownership guard and the router's view
// placement both resolve owners against.
type viewTable struct {
	mu   sync.RWMutex
	view *cluster.View
	ring *cluster.Ring // nil while no memory member is active
}

// adopt installs v unless a view of the same or a newer epoch is held;
// racing adopters converge on the newest epoch.
func (t *viewTable) adopt(v cluster.View) {
	cp := v.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.view == nil || cp.Epoch > t.view.Epoch {
		t.view, t.ring = &cp, cp.Ring(string(KindMemory))
	}
}

// get returns the held view (nil before the first adopt) and its ring.
func (t *viewTable) get() (*cluster.View, *cluster.Ring) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.view, t.ring
}

// NewClusterNode wraps mem as the shard owned by member id. The guard is
// inert until AdoptView installs a membership view.
func NewClusterNode(id string, mem *Memory) *ClusterNode {
	return &ClusterNode{id: id, mem: mem}
}

// Memory returns the wrapped store (the handoff path backfills through it).
func (n *ClusterNode) Memory() *Memory { return n.mem }

// ID returns the member ID this node guards for.
func (n *ClusterNode) ID() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.id
}

// SetID renames the member this node guards for — for deployments that only
// learn their identity (an ephemeral bound address, say) after the handler
// is constructed. Must be called before the node's agent joins the cluster;
// the guard is inert until then, so serving traffic already is fine.
func (n *ClusterNode) SetID(id string) {
	n.mu.Lock()
	n.id = id
	n.mu.Unlock()
}

// AdoptView installs a membership view, replacing any older one. Stale
// views (an epoch at or below the one held) are ignored.
func (n *ClusterNode) AdoptView(v cluster.View) { n.table.adopt(v) }

// View returns the node's current view (nil before the first AdoptView).
func (n *ClusterNode) View() *cluster.View {
	v, _ := n.table.get()
	return v
}

// owns reports whether this node is among the owners of key under the
// current view, returning the view for the redirect when it is not. With no
// view or no ring (no active members yet) everything is owned: the guard
// must never make a bootstrapping cluster reject its first writes.
func (n *ClusterNode) owns(key string) (bool, *cluster.View) {
	self := n.ID()
	view, ring := n.table.get()
	if view == nil || ring == nil {
		return true, nil
	}
	if slices.Contains(ring.Owners(key, view.Config.Normalize().Replication), self) {
		return true, nil
	}
	return false, view
}

// redirects reports whether the guard answers req with an ownership
// redirect rather than forwarding it — a store of an unowned key, or a
// fetch of a key neither owned nor held locally (a held key is always
// served; see the type comment on why handoff requires that) — returning
// the view to embed in the redirect.
func (n *ClusterNode) redirects(req Request) (bool, *cluster.View) {
	if req.Series == "" {
		return false, nil
	}
	switch req.Op {
	case OpStore:
		ok, view := n.owns(req.Series)
		return !ok, view
	case OpFetch:
		if n.mem.Len(req.Series) > 0 {
			return false, nil
		}
		ok, view := n.owns(req.Series)
		return !ok, view
	}
	return false, nil
}

// Handle implements Handler: ownership-guarded dispatch into the Memory.
func (n *ClusterNode) Handle(req Request) Response {
	switch req.Op {
	case OpStore, OpFetch:
		if moved, view := n.redirects(req); moved {
			mClusterRedirects.Inc()
			return movedResp(view, "%s %q: not an owner under epoch %d", req.Op, req.Series, view.Epoch)
		}
		return n.mem.Handle(req)
	case OpBatch:
		return n.handleBatch(req)
	default:
		// Repair-plane ops (digest, backfill) pass through unguarded on
		// purpose: anti-entropy must be able to read and heal whatever a
		// node actually holds — including series stranded by a ring move —
		// mirroring how handoff fetches bypass the ownership check.
		return n.mem.Handle(req)
	}
}

// handleBatch guards a batch envelope. The common case — every sub-request
// owned — forwards the whole envelope, so it is one journal commit and the
// Memory's batch metrics apply; only an envelope with at least one misrouted
// sub falls back to per-sub dispatch, answering the misrouted subs with
// redirects while the owned ones still execute.
func (n *ClusterNode) handleBatch(req Request) Response {
	misrouted := false
	for _, sub := range req.Batch {
		if moved, _ := n.redirects(sub); moved {
			misrouted = true
			break
		}
	}
	if !misrouted {
		return n.mem.Handle(req)
	}
	out := make([]Response, len(req.Batch))
	for i, sub := range req.Batch {
		var r Response
		if sub.Op == OpBatch {
			r = errResp("batch: nested batch envelopes are not allowed")
		} else if moved, view := n.redirects(sub); moved {
			mClusterRedirects.Inc()
			r = movedResp(view, "%s %q: not an owner under epoch %d", sub.Op, sub.Series, view.Epoch)
		} else {
			r = n.mem.Handle(sub)
		}
		r.OK = r.Error == ""
		out[i] = r
	}
	return Response{Batch: out}
}

var _ Handler = (*ClusterNode)(nil)
