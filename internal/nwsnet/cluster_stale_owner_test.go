package nwsnet

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
)

// keyFirstOwnedBy scans sensor-style keys for one whose first ring owner,
// once every listed member is active, is want.
func keyFirstOwnedBy(t *testing.T, cfg cluster.Config, ids []string, want string) string {
	t.Helper()
	v := cluster.View{Config: cfg}
	for _, id := range ids {
		v.Members = append(v.Members, cluster.Member{ID: id, Kind: string(KindMemory), State: cluster.StateActive})
	}
	ring := v.Ring(string(KindMemory))
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("host%03d/cpu/nws_hybrid", i)
		if ring.Owner(key) == want {
			return key
		}
	}
	t.Fatalf("no key among 1000 has %s as first owner", want)
	return ""
}

// TestClusterStaleOwnerWindowConverges pins the stale-owner window: between
// a joiner's activation and the previous owners' next lease renewal, the
// previous owners still hold the old view and acknowledge writes the joiner
// never sees. Every step is driven by hand in a fixed order — no renewal
// loops, no sleeps — so the loss is deterministic: after everyone has
// renewed, the joiner (first in ring order for the key) must hold every
// acknowledged point. The same scenario runs over loopback sockets and over
// a LocalTransport, where a replication-3 cluster also misses one write on a
// downed owner first, which that owner's next repair round heals.
func TestClusterStaleOwnerWindowConverges(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		cfg := cluster.Config{Replication: 2, VNodes: 32}
		nsSrv := NewServer(NewNameServer(time.Hour, cfg), nil)
		nsAddr, err := nsSrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nsSrv.Close() })
		listen := func(id string, h Handler) string {
			srv := NewServer(h, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return addr
		}
		staleOwnerWindow(t, cfg, released(t, NewClient(0)), nsAddr, listen, nil)
	})
	t.Run("local", func(t *testing.T) {
		cfg := cluster.Config{Replication: 3, VNodes: 32}
		lt := NewLocalTransport()
		lt.Register("registry", NewNameServer(time.Hour, cfg))
		listen := func(id string, h Handler) string {
			lt.Register("mem-"+id, h)
			return "mem-" + id
		}
		staleOwnerWindow(t, cfg, lt, "registry", listen, lt.SetDown)
	})
}

// staleOwnerWindow runs the scenario on a cluster of cfg.Replication members
// plus one joiner, every call going through tr. setDown, when non-nil, makes
// the second member miss one quorum-met write before the join.
func staleOwnerWindow(t *testing.T, cfg cluster.Config, tr Transport, nsAddr string,
	listen func(id string, h Handler) string, setDown func(addr string, down bool)) {
	ctx := context.Background()
	type member struct {
		addr  string
		node  *ClusterNode
		agent *ClusterAgent
	}
	byID := map[string]member{}
	var ids []string
	start := func(id string) member {
		t.Helper()
		node := NewClusterNode(id, NewMemory(0))
		addr := listen(id, node)
		m := member{addr, node, NewClusterAgent(tr, nsAddr, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addr}, node)}
		if err := m.agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
		byID[id] = m
		ids = append(ids, id)
		return m
	}
	renewAll := func() {
		t.Helper()
		for _, id := range ids {
			if rejoin, err := byID[id].agent.Renew(ctx); err != nil || rejoin {
				t.Fatalf("renew %s: rejoin=%v err=%v", id, rejoin, err)
			}
		}
	}
	for i := 0; i < cfg.Replication; i++ {
		start(fmt.Sprintf("node-%c", 'a'+i))
	}
	renewAll() // the early joiners adopt the view the last activation made
	joiner := fmt.Sprintf("node-%c", 'a'+cfg.Replication)
	key := keyFirstOwnedBy(t, cfg, append(append([]string(nil), ids...), joiner), joiner)

	reference := NewMemory(0)
	writer := NewReplicaGroupCluster(tr, nsAddr)
	seq := 0
	store := func() {
		t.Helper()
		seq++
		pts := [][2]float64{{float64(seq), 0.25 + float64(seq)/100}}
		if err := storeOne(ctx, writer, key, pts); err != nil {
			t.Fatalf("store seq %d: %v", seq, err)
		}
		reference.Handle(Request{Op: OpStore, Series: key, Points: pts})
	}
	for seq < 4 {
		store()
	}
	if setDown != nil {
		// One owner misses a write the other two acknowledge, then takes the
		// next one: the hole sits behind its frontier until its lease
		// renewal's repair round pulls it in.
		missed := byID[ids[1]]
		setDown(missed.addr, true)
		store()
		setDown(missed.addr, false)
		store()
		if got := missed.node.Memory().Len(key); got != seq-1 {
			t.Fatalf("owner that missed a write holds %d points, want %d", got, seq-1)
		}
		if rejoin, err := missed.agent.Renew(ctx); err != nil || rejoin {
			t.Fatalf("renew %s: rejoin=%v err=%v", missed.node.ID(), rejoin, err)
		}
		if got := missed.node.Memory().Len(key); got != seq {
			t.Fatalf("repaired owner holds %d points, want %d", got, seq)
		}
	}
	staleEpoch := routerEpoch(writer)

	// The joiner runs its full two-phase join: it backfills the key's
	// history from the owners and becomes the key's first owner.
	j := start(joiner)
	if got := j.node.Memory().Len(key); got != seq {
		t.Fatalf("joiner backfilled %d points of %s, want %d", got, key, seq)
	}

	// The window: the writer still routes by the old view, and no old owner
	// has renewed, so they all acknowledge a point the joiner is never sent.
	store()
	if got := routerEpoch(writer); got != staleEpoch {
		t.Fatalf("writer's view moved to epoch %d during the window; the scenario needs it stale", got)
	}
	renewAll()

	reader := NewReplicaGroupCluster(tr, nsAddr)
	got, err := reader.Fetch(ctx, key, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := reference.Handle(Request{Op: OpFetch, Series: key}).Points
	if len(got) != len(want) {
		t.Fatalf("%s: cluster read returns %d points, reference holds %d — an acknowledged point was lost", key, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s point %d: cluster %v != reference %v", key, i, got[i], want[i])
		}
	}

	// Every current owner holds the same bits.
	view, _ := reader.table.get()
	wantDigest, _ := reference.Digest(key)
	owners := view.Owners(string(KindMemory), key)
	if len(owners) != cfg.Replication || owners[0].ID != joiner {
		t.Fatalf("owners of %s = %+v, want %d led by %s", key, owners, cfg.Replication, joiner)
	}
	for _, m := range owners {
		if d, _ := byID[m.ID].node.Memory().Digest(key); d != wantDigest {
			t.Fatalf("owner %s digest %+v, want %+v", m.ID, d, wantDigest)
		}
	}
}

// TestRouterWritesKeyOnlyToCurrentOwners pins the invariant that the router
// writes a key only to its current owners. Member A misses a quorum-met
// write of key lost, a joiner then takes lost from A while A stays active,
// and A comes back. Nothing the router sends A afterwards — a clean store of
// a key A still owns included — may carry lost: no repairer or delete ever
// visits a series on a non-owner, so a point landing there is stranded.
func TestRouterWritesKeyOnlyToCurrentOwners(t *testing.T) {
	cfg := cluster.Config{Replication: 3, VNodes: 32}
	lt := NewLocalTransport()
	lt.Register("registry", NewNameServer(time.Hour, cfg))
	ctx := context.Background()
	nodes := map[string]*ClusterNode{}
	var agents []*ClusterAgent
	join := func(id string) {
		t.Helper()
		node := NewClusterNode(id, NewMemory(0))
		lt.Register("mem-"+id, node)
		agent := NewClusterAgent(lt, "registry", cluster.Member{ID: id, Kind: string(KindMemory), Addr: "mem-" + id}, node)
		if err := agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		agents = append(agents, agent)
	}
	renewAll := func() {
		t.Helper()
		for _, a := range agents {
			if rejoin, err := a.Renew(ctx); err != nil || rejoin {
				t.Fatalf("renew: rejoin=%v err=%v", rejoin, err)
			}
		}
	}

	// Under the four-member ring, lost is owned by the other three and kept
	// by A among them.
	const a = "node-a"
	all := cluster.View{Config: cfg}
	for _, id := range []string{a, "node-b", "node-c", "node-d"} {
		all.Members = append(all.Members, cluster.Member{ID: id, Kind: string(KindMemory), State: cluster.StateActive})
	}
	lost, kept := "", ""
	for i := 0; i < 1000 && (lost == "" || kept == ""); i++ {
		key := fmt.Sprintf("host%03d/cpu/nws_hybrid", i)
		owned := slices.ContainsFunc(all.Owners(string(KindMemory), key), func(m cluster.Member) bool { return m.ID == a })
		switch {
		case owned && kept == "":
			kept = key
		case !owned && lost == "":
			lost = key
		}
	}

	for _, id := range []string{a, "node-b", "node-c"} {
		join(id)
	}
	renewAll()
	writer := NewReplicaGroupCluster(lt, "registry")
	for seq := 1; seq <= 4; seq++ {
		if err := storeOne(ctx, writer, lost, [][2]float64{{float64(seq), 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	held := nodes[a].Memory().Len(lost)

	// A misses a write the other two owners acknowledge.
	lt.SetDown("mem-"+a, true)
	if err := storeOne(ctx, writer, lost, [][2]float64{{5, 0.5}}); err != nil {
		t.Fatalf("store with 2/3 owners up: %v", err)
	}
	// The joiner takes lost from A; everyone, the writer too, adopts the view.
	join("node-d")
	renewAll()
	if err := writer.refresh(ctx); err != nil {
		t.Fatal(err)
	}
	lt.SetDown("mem-"+a, false)
	if err := storeOne(ctx, writer, kept, [][2]float64{{1, 0.5}}); err != nil {
		t.Fatal(err)
	}

	if got := nodes[a].Memory().Len(lost); got != held {
		t.Fatalf("non-owner %s holds %d points of %s, held %d when it lost ownership", a, got, lost, held)
	}
	if got := nodes[a].Memory().Len(kept); got != 1 {
		t.Fatalf("owner %s holds %d points of %s, want 1", a, got, kept)
	}
}

// routerEpoch returns the epoch of the view a router routes by.
func routerEpoch(g *ReplicaGroup) uint64 {
	v, _ := g.table.get()
	return v.Epoch
}
