package nwsnet

import (
	"sort"
	"sync"
	"time"

	"nwscpu/internal/nwsnet/cluster"
)

// NameServer is the NWS directory and cluster registry: components register
// (name, kind, addr) triples and clients look them up, while shard servers
// of the partitioned deployment hold epoch-numbered membership leases (see
// docs/ARCHITECTURE.md, "The partitioned cluster"). Registrations are
// overwritten on re-register so restarting components self-heal; with a TTL
// configured, entries that have not re-registered recently expire from
// lookups and listings (periodic re-registration doubles as the heartbeat,
// as in the real NWS), and cluster leases expire the same way — except a
// lease lapsing also bumps the view epoch, because key ownership moved.
//
// Expiry is lazy and amortized: a lookup checks only the entry it hit, and
// a full sweep of the map runs at most once per TTL (triggered by whichever
// request crosses the boundary), so per-request cost stays O(1) regardless
// of directory size.
type NameServer struct {
	ttl time.Duration // 0 = entries never expire
	clk clock

	mu        sync.Mutex
	entries   map[string]nsEntry
	lastSweep time.Time
	sweeps    int // full sweeps performed (test visibility)

	// Cluster registry state. members holds every live lease; epoch
	// advances exactly when key ownership changes (a member activates or
	// an active member's lease expires).
	ccfg    cluster.Config
	epoch   uint64
	members map[string]*memberEntry
}

type nsEntry struct {
	reg  Registration
	seen time.Time
}

type memberEntry struct {
	m    cluster.Member
	seen time.Time
}

// NewNameServer returns a registry whose entries and membership leases
// expire ttl after their most recent registration or renewal (0 disables
// expiry), serving cluster membership with the ring geometry cfg (zero
// fields select the defaults: replication 2, 64 vnodes).
func NewNameServer(ttl time.Duration, cfg cluster.Config) *NameServer {
	ns := &NameServer{
		ttl:     ttl,
		clk:     wallClock{},
		entries: make(map[string]nsEntry),
		ccfg:    cfg.Normalize(),
		members: make(map[string]*memberEntry),
	}
	ns.lastSweep = ns.clk.now()
	return ns
}

// alive reports whether e is still fresh.
func (ns *NameServer) alive(seen time.Time) bool {
	return ns.ttl <= 0 || ns.clk.now().Sub(seen) < ns.ttl
}

// reapLocked deletes every expired entry and lease, counting each reap
// once. An expired active member bumps the epoch: its key ranges belong to
// the surviving owners now.
func (ns *NameServer) reapLocked() {
	if ns.ttl <= 0 {
		return
	}
	for name, e := range ns.entries {
		if !ns.alive(e.seen) {
			delete(ns.entries, name)
			mNSExpiries.Inc()
		}
	}
	mNSEntries.Set(float64(len(ns.entries)))
	ns.reapMembersLocked()
}

// maybeSweepLocked runs the full-map reap at most once per TTL — the
// amortization that keeps Lookup and Register O(1) on a directory of
// thousands while still guaranteeing expired state is eventually dropped
// (and the nws_nameserver_entries gauge corrected) without any request
// observing it.
func (ns *NameServer) maybeSweepLocked() {
	if ns.ttl <= 0 {
		return
	}
	if now := ns.clk.now(); now.Sub(ns.lastSweep) >= ns.ttl {
		ns.lastSweep = now
		ns.sweeps++
		ns.reapLocked()
	}
}

// reapMembersLocked expires lapsed leases. Only an active member's expiry
// bumps the epoch — a joining member was never in the routing ring, so its
// disappearance moves no keys.
func (ns *NameServer) reapMembersLocked() {
	if ns.ttl <= 0 {
		return
	}
	bumped := false
	for id, me := range ns.members {
		if ns.alive(me.seen) {
			continue
		}
		if me.m.State == cluster.StateActive {
			bumped = true
		}
		delete(ns.members, id)
		mClusterLeaseExpiries.Inc()
	}
	if bumped {
		ns.epoch++
		mClusterEpoch.Set(float64(ns.epoch))
	}
	ns.setMemberGaugesLocked()
}

func (ns *NameServer) setMemberGaugesLocked() {
	var joining, active float64
	for _, me := range ns.members {
		if me.m.State == cluster.StateActive {
			active++
		} else {
			joining++
		}
	}
	mClusterMembers.With(string(cluster.StateJoining)).Set(joining)
	mClusterMembers.With(string(cluster.StateActive)).Set(active)
}

// viewLocked snapshots the current membership view (members sorted by ID
// so the encoding is deterministic).
func (ns *NameServer) viewLocked() *cluster.View {
	v := &cluster.View{Epoch: ns.epoch, Config: ns.ccfg}
	v.Members = make([]cluster.Member, 0, len(ns.members))
	for _, me := range ns.members {
		v.Members = append(v.Members, me.m)
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].ID < v.Members[j].ID })
	return v
}

// Handle implements Handler.
func (ns *NameServer) Handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{}
	case OpRegister:
		if req.Reg.Name == "" || req.Reg.Kind == "" || len(req.Reg.Endpoints()) == 0 {
			return errResp("register requires name, kind and addr (or addrs)")
		}
		ns.mu.Lock()
		ns.maybeSweepLocked()
		ns.entries[req.Reg.Name] = nsEntry{reg: req.Reg, seen: ns.clk.now()}
		mNSRegistrations.Inc()
		mNSEntries.Set(float64(len(ns.entries)))
		ns.mu.Unlock()
		return Response{}
	case OpLookup:
		if req.Reg.Name == "" {
			return errResp("lookup requires a name")
		}
		ns.mu.Lock()
		ns.maybeSweepLocked()
		e, ok := ns.entries[req.Reg.Name]
		if ok && !ns.alive(e.seen) {
			// Reap exactly the entry this lookup observed expired; the
			// rest of the map is untouched (the amortized sweep covers it).
			delete(ns.entries, req.Reg.Name)
			mNSExpiries.Inc()
			mNSEntries.Set(float64(len(ns.entries)))
			ok = false
		}
		ns.mu.Unlock()
		if !ok {
			mNSLookups.With("miss").Inc()
			return errResp("unknown component %q", req.Reg.Name)
		}
		mNSLookups.With("hit").Inc()
		return Response{Entries: []Registration{e.reg}}
	case OpList:
		ns.mu.Lock()
		ns.maybeSweepLocked()
		out := make([]Registration, 0, len(ns.entries))
		for _, e := range ns.entries {
			// Filter expired entries the sweep has not deleted yet: a
			// listing never reports a dead component, whatever the sweep
			// schedule.
			if !ns.alive(e.seen) {
				continue
			}
			if req.Reg.Kind == "" || e.reg.Kind == req.Reg.Kind {
				out = append(out, e.reg)
			}
		}
		ns.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return Response{Entries: out}
	case OpJoin:
		return ns.handleJoin(req)
	case OpLease:
		return ns.handleLease(req)
	case OpView:
		return ns.handleView(req)
	default:
		return errResp("name server: unsupported op %q", req.Op)
	}
}

// handleJoin enters (or re-announces) a member. A join in the joining
// state takes a lease without moving any keys; re-joining with the active
// state is the activation step of the two-phase join and bumps the epoch,
// atomically moving the member's key ranges to it. Joins are idempotent:
// re-announcing an unchanged member only refreshes its lease.
func (ns *NameServer) handleJoin(req Request) Response {
	m := req.Member
	if m == nil || m.ID == "" || m.Kind == "" || len(m.Endpoints()) == 0 {
		return errResp("join requires member id, kind and addr (or addrs)")
	}
	state := m.State
	if state == "" {
		state = cluster.StateJoining
	}
	if state != cluster.StateJoining && state != cluster.StateActive {
		return errResp("join: unknown member state %q", state)
	}
	ns.mu.Lock()
	ns.reapMembersLocked()
	prev, existed := ns.members[m.ID]
	entry := &memberEntry{m: *m, seen: ns.clk.now()}
	entry.m.State = state
	ns.members[m.ID] = entry
	// Ownership changes exactly when the active member set changes: a
	// member becoming active (fresh activation), or an already-active
	// member changing its endpoints.
	if state == cluster.StateActive &&
		(!existed || prev.m.State != cluster.StateActive || !sameEndpoints(prev.m, entry.m)) {
		ns.epoch++
		mClusterEpoch.Set(float64(ns.epoch))
	}
	ns.setMemberGaugesLocked()
	v := ns.viewLocked()
	ns.mu.Unlock()
	return Response{View: v}
}

func sameEndpoints(a, b cluster.Member) bool {
	ae, be := a.Endpoints(), b.Endpoints()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// handleLease renews a member's lease. An unknown member (expired, or the
// registry restarted) gets a terminal error so the agent re-joins from
// scratch. The response carries the view only when the caller's epoch is
// stale, so steady-state heartbeats stay small.
func (ns *NameServer) handleLease(req Request) Response {
	if req.Member == nil || req.Member.ID == "" {
		return errResp("lease requires a member id")
	}
	ns.mu.Lock()
	ns.reapMembersLocked()
	me, ok := ns.members[req.Member.ID]
	if !ok {
		ns.mu.Unlock()
		return errResp("lease: unknown member %q (lease expired or registry restarted; re-join)", req.Member.ID)
	}
	me.seen = ns.clk.now()
	var v *cluster.View
	if req.Epoch != ns.epoch {
		v = ns.viewLocked()
	}
	ns.mu.Unlock()
	return Response{View: v}
}

// handleView serves the membership view. A caller already holding the
// current epoch gets a bare OK ("not modified"); epoch 0 always fetches.
func (ns *NameServer) handleView(req Request) Response {
	ns.mu.Lock()
	ns.reapMembersLocked()
	if req.Epoch != 0 && req.Epoch == ns.epoch {
		ns.mu.Unlock()
		return Response{}
	}
	v := ns.viewLocked()
	ns.mu.Unlock()
	return Response{View: v}
}

var _ Handler = (*NameServer)(nil)
