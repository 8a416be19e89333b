package nwsnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
)

// startCluster spins up a registry server plus n memory shard servers, each
// wrapped in a ClusterNode and joined through the full agent lifecycle.
// Returns the registry address, the nodes, and their addresses.
func startCluster(t *testing.T, n int, cfg cluster.Config, ttl time.Duration) (nsAddr string, nodes []*ClusterNode, addrs []string) {
	t.Helper()
	ns := NewNameServerCluster(ttl, cfg)
	nsSrv := NewServer(ns, nil)
	var err error
	nsAddr, err = nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nsSrv.Close() })
	for i := 0; i < n; i++ {
		nodes = append(nodes, nil)
		addrs = append(addrs, "")
		nodes[i], addrs[i] = startClusterNode(t, nsAddr, fmt.Sprintf("node-%d", i))
	}
	return nsAddr, nodes, addrs
}

// released closes c's pooled connections when the test ends.
func released(t *testing.T, c *Client) *Client {
	t.Cleanup(func() { c.Close() })
	return c
}

// startClusterNode starts one guarded memory shard and joins it to the
// cluster behind nsAddr, returning its node and address.
func startClusterNode(t *testing.T, nsAddr, id string) (*ClusterNode, string) {
	t.Helper()
	node := NewClusterNode(id, NewMemory(0))
	srv := NewServer(node, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	agent := NewClusterAgent(nil, nsAddr, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addr}, node)
	if err := agent.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	return node, addr
}

// TestClusterRegistryLifecycle drives join / lease / view against a real
// registry server over both codecs: the two-phase join bumps the epoch only
// on activation, renewals carry a view only when the caller is stale, and
// the view fetch supports not-modified.
func TestClusterRegistryLifecycle(t *testing.T) {
	for _, codec := range []string{codecBinary, codecJSON} {
		t.Run(codec, func(t *testing.T) {
			ns := NewNameServerCluster(time.Minute, cluster.Config{Replication: 2, VNodes: 16})
			srv := NewServer(ns, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// do returns the classified answer: its view, or why there is none.
			c := NewClient(0)
			defer c.Close()
			do := func(req Request) (*cluster.View, error) {
				resp, err := c.do(context.Background(), addr, req)
				return resp.View, err
			}
			if codec == codecJSON {
				ask := dialV1(t, addr)
				do = func(req Request) (*cluster.View, error) {
					resp := ask(req)
					return resp.View, respError(addr, resp)
				}
			}
			join := func(state cluster.State) *cluster.View {
				t.Helper()
				v, err := do(Request{Op: OpJoin, Member: &cluster.Member{ID: "m0", Kind: string(KindMemory), Addr: "a:1", State: state}})
				if err != nil || v == nil {
					t.Fatalf("join as %q: view %+v, err %v", state, v, err)
				}
				return v
			}
			renew := func(id string, epoch uint64) (*cluster.View, error) {
				return do(Request{Op: OpLease, Member: &cluster.Member{ID: id}, Epoch: epoch})
			}

			// Joining state: lease taken, no epoch movement.
			v := join(cluster.StateJoining)
			if v.Epoch != 0 || len(v.Members) != 1 || v.Members[0].State != cluster.StateJoining {
				t.Fatalf("joining view = %+v, want epoch 0 with one joining member", v)
			}
			// Activation bumps the epoch exactly once; re-activating the same
			// member does not.
			if v = join(cluster.StateActive); v.Epoch != 1 {
				t.Fatalf("activation epoch = %d, want 1", v.Epoch)
			}
			if v = join(cluster.StateActive); v.Epoch != 1 {
				t.Fatalf("idempotent re-join epoch = %d, want 1", v.Epoch)
			}

			// A current renewal carries no view; a stale one does.
			nv, err := renew("m0", 1)
			if err != nil {
				t.Fatal(err)
			}
			if nv != nil {
				t.Fatalf("current-epoch renewal returned a view: %+v", nv)
			}
			nv, err = renew("m0", 0)
			if err != nil {
				t.Fatal(err)
			}
			if nv == nil || nv.Epoch != 1 {
				t.Fatalf("stale renewal view = %+v, want epoch 1", nv)
			}
			// An unknown member's renewal is terminal: only a re-join recovers.
			if _, err := renew("ghost", 1); err == nil {
				t.Fatal("renewal of unknown member succeeded")
			}

			// View fetch: epoch 0 always fetches, current epoch is not-modified.
			fv, err := do(Request{Op: OpView})
			if err != nil {
				t.Fatal(err)
			}
			if fv == nil || fv.Epoch != 1 {
				t.Fatalf("fetched view = %+v, want epoch 1", fv)
			}
			fv, err = do(Request{Op: OpView, Epoch: 1})
			if err != nil {
				t.Fatal(err)
			}
			if fv != nil {
				t.Fatalf("not-modified fetch returned a view: %+v", fv)
			}
		})
	}
}

// TestClusterV1ClientCompat proves a pre-cluster v1 JSON peer still works
// against a cluster-enabled deployment: plain store/fetch/series round trips
// through a guarded node it happens to own series on, and the registry still
// answers the v1 directory ops.
func TestClusterV1ClientCompat(t *testing.T) {
	nsAddr, nodes, addrs := startCluster(t, 1, cluster.Config{Replication: 1, VNodes: 16}, time.Minute)
	ok := func(ask func(Request) Response, req Request) Response {
		t.Helper()
		resp := ask(req)
		if !resp.OK {
			t.Fatalf("v1 %s: %+v", req.Op, resp)
		}
		return resp
	}

	// v1 directory ops against the cluster registry.
	registry := dialV1(t, nsAddr)
	ok(registry, Request{Op: OpRegister, Reg: Registration{Name: "h/cpu", Kind: KindSensor, Addr: "a:1"}})
	if resp := ok(registry, Request{Op: OpLookup, Reg: Registration{Name: "h/cpu"}}); len(resp.Entries) != 1 {
		t.Fatalf("lookup entries = %+v, want one", resp.Entries)
	}

	// With a single active member every key is owned: the guard must be
	// invisible to the v1 peer.
	node := dialV1(t, addrs[0])
	ok(node, Request{Op: OpStore, Series: "h/cpu/nws_hybrid", Points: [][2]float64{{1, 0.5}, {2, 0.6}}})
	if resp := ok(node, Request{Op: OpFetch, Series: "h/cpu/nws_hybrid"}); len(resp.Points) != 2 {
		t.Fatalf("fetched %d points, want 2", len(resp.Points))
	}
	if resp := ok(node, Request{Op: OpSeries}); len(resp.Names) != 1 {
		t.Fatalf("series = %v, want one", resp.Names)
	}
	if v := nodes[0].View(); v == nil || v.Epoch == 0 {
		t.Fatalf("node never adopted a view: %+v", v)
	}
}

// TestClusterNodeGuard exercises the ownership guard's asymmetry: stores of
// unowned keys redirect with the view attached, fetches of held keys are
// served regardless of ownership, and series-less ops pass through.
func TestClusterNodeGuard(t *testing.T) {
	node := NewClusterNode("me", NewMemory(0))

	// Inert before any view: everything is owned.
	if r := node.Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 1}}}); r.Error != "" {
		t.Fatalf("guard rejected a store with no view: %s", r.Error)
	}

	// Install a view whose only active member is someone else: nothing is
	// owned by this node anymore.
	view := cluster.View{
		Epoch:  3,
		Config: cluster.Config{Replication: 1, VNodes: 16},
		Members: []cluster.Member{
			{ID: "other", Kind: string(KindMemory), Addr: "b:2", State: cluster.StateActive},
		},
	}
	node.AdoptView(view)

	r := node.Handle(Request{Op: OpStore, Series: "k2", Points: [][2]float64{{2, 1}}})
	if r.Code != CodeMoved || r.View == nil || r.View.Epoch != 3 {
		t.Fatalf("unowned store = %+v, want moved redirect carrying epoch 3", r)
	}
	// The held series from before the view is still served — handoff and
	// read availability depend on it.
	if r := node.Handle(Request{Op: OpFetch, Series: "k"}); r.Error != "" || len(r.Points) != 1 {
		t.Fatalf("held fetch = %+v, want the stored point", r)
	}
	// A fetch of a key neither owned nor held redirects.
	if r := node.Handle(Request{Op: OpFetch, Series: "k2"}); r.Code != CodeMoved {
		t.Fatalf("unheld unowned fetch = %+v, want moved", r)
	}
	// Series-less ops pass through untouched.
	if r := node.Handle(Request{Op: OpSeries}); r.Error != "" || len(r.Names) != 1 {
		t.Fatalf("series listing = %+v", r)
	}

	// Batch envelope: owned subs execute, misrouted subs redirect in place.
	br := node.Handle(Request{Op: OpBatch, Batch: []Request{
		{Op: OpFetch, Series: "k"},
		{Op: OpStore, Series: "k3", Points: [][2]float64{{3, 1}}},
	}})
	if len(br.Batch) != 2 {
		t.Fatalf("batch = %+v, want 2 subs", br)
	}
	if br.Batch[0].Error != "" || len(br.Batch[0].Points) != 1 {
		t.Fatalf("owned batch sub = %+v", br.Batch[0])
	}
	if br.Batch[1].Code != CodeMoved {
		t.Fatalf("misrouted batch sub = %+v, want moved", br.Batch[1])
	}

	// A stale view (epoch at or below the held one) is ignored.
	node.AdoptView(cluster.View{Epoch: 2})
	if v := node.View(); v.Epoch != 3 {
		t.Fatalf("stale view adopted: epoch %d", v.Epoch)
	}
}

// TestClusterClientRouting stores and fetches through the routing table
// against a live 2-node rf=1 cluster: every key lands on its ring owner,
// a client bootstrapped with a deliberately wrong view recovers via the
// redirect it gets from the misrouted call, and reads fail over.
func TestClusterClientRouting(t *testing.T) {
	nsAddr, nodes, addrs := startCluster(t, 2, cluster.Config{Replication: 1, VNodes: 32}, time.Minute)
	ctx := context.Background()

	cc := NewReplicaGroupCluster(released(t, NewClient(0)), nsAddr)

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("host%02d/cpu/nws_hybrid", i)
		if err := cc.Store(ctx, keys[i], [][2]float64{{1, 0.25}, {2, 0.75}}); err != nil {
			t.Fatalf("store %s: %v", keys[i], err)
		}
	}
	v, _ := cc.table.get()
	if v == nil {
		t.Fatal("router never bootstrapped a view")
	}
	ring := v.Ring(string(KindMemory))
	split := map[string]int{}
	for _, key := range keys {
		owner := ring.Owner(key)
		split[owner]++
		// The point must live on exactly the owner the ring names.
		ownerIdx := 0
		if owner == "node-1" {
			ownerIdx = 1
		}
		if got := nodes[ownerIdx].Memory().Len(key); got != 2 {
			t.Fatalf("owner %s holds %d points of %s, want 2", owner, got, key)
		}
		if got := nodes[1-ownerIdx].Memory().Len(key); got != 0 {
			t.Fatalf("non-owner holds %d points of %s", got, key)
		}
	}
	if len(split) != 2 {
		t.Fatalf("all %d keys landed on one shard: %v", len(keys), split)
	}

	for _, key := range keys {
		pts, err := cc.Fetch(ctx, key, 0, 0, 0)
		if err != nil {
			t.Fatalf("fetch %s: %v", key, err)
		}
		if len(pts) != 2 {
			t.Fatalf("fetch %s = %d points, want 2", key, len(pts))
		}
	}
	res, err := cc.FetchBatch(ctx, []BatchFetch{{Series: keys[0]}, {Series: keys[7]}, {Series: "absent/cpu"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].Err != nil || res[1].Err != nil || res[2].Err == nil {
		t.Fatalf("batch fetch = %+v", res)
	}
	names, err := cc.Series(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(keys) {
		t.Fatalf("series union = %d names, want %d", len(names), len(keys))
	}

	// A router poisoned with a wrong view — both keys' owner swapped — must
	// recover from the CodeMoved redirect without consulting the registry.
	stale := NewReplicaGroupCluster(released(t, NewClient(0)), "127.0.0.1:1") // unreachable registry
	wrong := v.Clone()
	wrong.Members[0].Addr, wrong.Members[1].Addr = wrong.Members[1].Endpoints()[0], wrong.Members[0].Endpoints()[0]
	wrong.Members[0].Addrs, wrong.Members[1].Addrs = nil, nil
	wrong.Epoch = v.Epoch - 1 // genuinely stale, so the redirect's view supersedes it
	stale.adoptView(&wrong)
	before := mClusterRefreshRedirect.Value()
	if err := stale.Store(ctx, keys[0], [][2]float64{{3, 0.5}}); err != nil {
		t.Fatalf("store through stale view: %v", err)
	}
	if mClusterRefreshRedirect.Value() == before {
		t.Fatal("stale store recovered without a redirect refresh")
	}

	// Health reports every active member.
	h := cc.Health()
	if len(h) != 2 || !h[0].Healthy || !h[1].Healthy {
		t.Fatalf("health = %+v", h)
	}
	_ = addrs
}

// TestClusterHandoffOnJoin grows a 1-node cluster to 2 nodes and verifies
// the joiner backfilled the full history of every series it now owns while
// the old owner still serves what it holds.
func TestClusterHandoffOnJoin(t *testing.T) {
	nsAddr, nodes, _ := startCluster(t, 1, cluster.Config{Replication: 1, VNodes: 32}, time.Minute)
	ctx := context.Background()
	cc := NewReplicaGroupCluster(released(t, NewClient(0)), nsAddr)

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("host%02d/cpu/nws_hybrid", i)
		pts := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
		if err := cc.Store(ctx, keys[i], pts); err != nil {
			t.Fatal(err)
		}
	}

	// A second node joins: its two-phase join must pull the history of every
	// series the new ring assigns it.
	node1, _ := startClusterNode(t, nsAddr, "node-1")
	v := node1.View()
	if v == nil || len(v.Active(string(KindMemory))) != 2 {
		t.Fatalf("joiner's view = %+v, want 2 active members", v)
	}
	ring := v.Ring(string(KindMemory))
	moved := 0
	for _, key := range keys {
		if ring.Owner(key) != "node-1" {
			continue
		}
		moved++
		if got := node1.Memory().Len(key); got != 3 {
			t.Fatalf("joiner holds %d points of owned key %s, want 3", got, key)
		}
	}
	if moved == 0 {
		t.Fatal("ring moved no keys to the joiner")
	}
	// The old owner still holds everything (handoff copies, it does not
	// delete) so reads stay available through the transition.
	for _, key := range keys {
		if nodes[0].Memory().Len(key) != 3 {
			t.Fatalf("old owner lost %s during handoff", key)
		}
	}
	// The routed read path serves every key under the new view.
	for _, key := range keys {
		pts, err := cc.Fetch(ctx, key, 0, 0, 0)
		if err != nil || len(pts) != 3 {
			t.Fatalf("fetch %s after handoff = %d points, %v", key, len(pts), err)
		}
	}
}

// TestMemoryBackfill verifies the handoff merge path: history lands behind
// the write frontier, duplicate timestamps are skipped, and capacity keeps
// the newest points.
func TestMemoryBackfill(t *testing.T) {
	m := NewMemory(0)
	if r := m.Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{10, 1}, {11, 1}}}); r.Error != "" {
		t.Fatal(r.Error)
	}
	// Backfill older history plus one duplicate: only the history counts.
	added := m.Backfill("k", [][2]float64{{1, 0.1}, {2, 0.2}, {10, 9}})
	if added != 2 {
		t.Fatalf("backfill added %d, want 2", added)
	}
	r := m.Handle(Request{Op: OpFetch, Series: "k"})
	want := [][2]float64{{1, 0.1}, {2, 0.2}, {10, 1}, {11, 1}}
	if len(r.Points) != len(want) {
		t.Fatalf("after backfill: %v", r.Points)
	}
	for i, p := range want {
		if r.Points[i] != p {
			t.Fatalf("point %d = %v, want %v (duplicate must keep the stored value)", i, r.Points[i], p)
		}
	}
	// Idempotent: replaying the same backfill inserts nothing.
	if added := m.Backfill("k", [][2]float64{{1, 0.1}, {2, 0.2}}); added != 0 {
		t.Fatalf("replayed backfill added %d", added)
	}
	// A backfill into an absent series creates it.
	if added := m.Backfill("fresh", [][2]float64{{5, 0.5}}); added != 1 || m.Len("fresh") != 1 {
		t.Fatalf("fresh backfill added %d, len %d", added, m.Len("fresh"))
	}

	// Capacity: merging history into a full ring keeps the newest points.
	small := NewMemory(3)
	small.Handle(Request{Op: OpStore, Series: "s", Points: [][2]float64{{10, 1}, {11, 1}, {12, 1}}})
	small.Backfill("s", [][2]float64{{1, 0.1}, {2, 0.2}})
	r = small.Handle(Request{Op: OpFetch, Series: "s"})
	if len(r.Points) != 3 || r.Points[0][0] != 10 {
		t.Fatalf("capacity merge = %v, want the newest 3", r.Points)
	}
}

// TestNameServerLeaseExpiry drives the registry clock forward: a lapsed
// active lease bumps the epoch and leaves the view, a lapsed joining lease
// disappears without moving keys.
func TestNameServerLeaseExpiry(t *testing.T) {
	ns := NewNameServerCluster(time.Second, cluster.Config{Replication: 2})
	now := time.Unix(1000, 0)
	ns.now = func() time.Time { return now }
	ns.lastSweep = now

	join := func(id string, state cluster.State) Response {
		return ns.Handle(Request{Op: OpJoin, Member: &cluster.Member{ID: id, Kind: string(KindMemory), Addr: id + ":1", State: state}})
	}
	if r := join("a", cluster.StateActive); r.Error != "" || r.View.Epoch != 1 {
		t.Fatalf("join a = %+v", r)
	}
	if r := join("b", cluster.StateJoining); r.Error != "" || r.View.Epoch != 1 {
		t.Fatalf("join b = %+v", r)
	}

	// b (joining) lapses: no epoch movement, member gone.
	now = now.Add(1100 * time.Millisecond)
	ns.Handle(Request{Op: OpLease, Member: &cluster.Member{ID: "a"}, Epoch: 1}) // keeps a alive? no — a lapsed too
	v := ns.View()
	if len(v.Members) != 0 {
		t.Fatalf("members after lapse = %+v", v.Members)
	}
	if v.Epoch != 2 {
		t.Fatalf("epoch after active lapse = %d, want 2 (a was active)", v.Epoch)
	}

	// Rebuild: an active member that keeps renewing survives, a joining one
	// that lapses moves no keys.
	if r := join("a", cluster.StateActive); r.Error != "" {
		t.Fatal(r.Error)
	}
	epoch := ns.View().Epoch
	if r := join("j", cluster.StateJoining); r.Error != "" {
		t.Fatal(r.Error)
	}
	for i := 0; i < 3; i++ {
		now = now.Add(600 * time.Millisecond)
		if r := ns.Handle(Request{Op: OpLease, Member: &cluster.Member{ID: "a"}, Epoch: epoch}); r.Error != "" {
			t.Fatalf("renewal %d: %s", i, r.Error)
		}
	}
	v = ns.View()
	if len(v.Members) != 1 || v.Members[0].ID != "a" {
		t.Fatalf("survivors = %+v, want only a", v.Members)
	}
	if v.Epoch != epoch {
		t.Fatalf("joining lapse moved the epoch: %d → %d", epoch, v.Epoch)
	}
}

// TestNameServerAmortizedReap is the regression guard for the O(n)
// reap-on-every-lookup bug: with thousands of live entries, a burst of
// lookups inside one TTL window runs at most one full sweep, and an expired
// entry observed by a lookup is reaped individually without sweeping.
func TestNameServerAmortizedReap(t *testing.T) {
	ns := NewNameServerTTL(time.Second)
	now := time.Unix(2000, 0)
	ns.now = func() time.Time { return now }
	ns.lastSweep = now

	const n = 5000
	for i := 0; i < n; i++ {
		r := ns.Handle(Request{Op: OpRegister, Reg: Registration{
			Name: fmt.Sprintf("h%04d/cpu", i), Kind: KindSensor, Addr: "a:1",
		}})
		if r.Error != "" {
			t.Fatal(r.Error)
		}
	}
	if got := ns.Sweeps(); got != 0 {
		t.Fatalf("registrations inside the TTL swept %d times", got)
	}

	// A burst of lookups within the TTL window: zero sweeps.
	now = now.Add(500 * time.Millisecond)
	for i := 0; i < n; i++ {
		r := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: fmt.Sprintf("h%04d/cpu", i%n)}})
		if r.Error != "" {
			t.Fatal(r.Error)
		}
	}
	if got := ns.Sweeps(); got != 0 {
		t.Fatalf("lookup burst inside TTL swept %d times, want 0", got)
	}

	// Crossing the TTL boundary: the whole burst triggers exactly one sweep.
	now = now.Add(600 * time.Millisecond)
	for i := 0; i < n; i++ {
		ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: fmt.Sprintf("h%04d/cpu", i)}})
	}
	if got := ns.Sweeps(); got != 1 {
		t.Fatalf("lookup burst across TTL swept %d times, want exactly 1", got)
	}

	// An expired entry hit by a lookup is reaped individually, without a
	// full sweep: register an entry young enough to survive the next sweep,
	// then look it up once it has lapsed but before the sweep after that.
	now = now.Add(500 * time.Millisecond)
	ns.Handle(Request{Op: OpRegister, Reg: Registration{Name: "lapsing/cpu", Kind: KindSensor, Addr: "a:1"}})
	now = now.Add(600 * time.Millisecond) // crosses the boundary: next request sweeps
	ns.Handle(Request{Op: OpRegister, Reg: Registration{Name: "fresh/cpu", Kind: KindSensor, Addr: "a:1"}})
	sweeps := ns.Sweeps() // lapsing/cpu (0.6s old) survived that sweep
	now = now.Add(600 * time.Millisecond)
	if r := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "lapsing/cpu"}}); r.Error == "" {
		t.Fatal("expired entry still resolvable")
	}
	if got := ns.Sweeps(); got != sweeps {
		t.Fatalf("individual reap ran a full sweep (%d → %d)", sweeps, got)
	}
	if r := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: "fresh/cpu"}}); r.Error != "" {
		t.Fatalf("fresh entry lost: %s", r.Error)
	}
}

// BenchmarkNameServerLookup pins the amortized-reap win: per-lookup cost on
// a directory of thousands must be O(1), not O(n) map sweeps.
func BenchmarkNameServerLookup(b *testing.B) {
	ns := NewNameServerTTL(time.Hour)
	const n = 10000
	for i := 0; i < n; i++ {
		ns.Handle(Request{Op: OpRegister, Reg: Registration{
			Name: fmt.Sprintf("h%05d/cpu", i), Kind: KindSensor, Addr: "a:1",
		}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ns.Handle(Request{Op: OpLookup, Reg: Registration{Name: fmt.Sprintf("h%05d/cpu", i%n)}})
		if r.Error != "" {
			b.Fatal(r.Error)
		}
	}
}
