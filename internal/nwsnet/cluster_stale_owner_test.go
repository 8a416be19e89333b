package nwsnet

import (
	"context"
	"fmt"
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
// acknowledged point.
func TestClusterStaleOwnerWindowConverges(t *testing.T) {
	ctx := context.Background()
	cfg := cluster.Config{Replication: 2, VNodes: 32}
	ns := NewNameServerCluster(time.Hour, cfg)
	nsSrv := NewServer(ns, nil)
	nsAddr, err := nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsSrv.Close()

	type member struct {
		node  *ClusterNode
		agent *ClusterAgent
	}
	start := func(id string) member {
		node := NewClusterNode(id, NewMemory(0))
		srv := NewServer(node, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		agent := NewClusterAgent(nil, nsAddr, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addr}, node)
		t.Cleanup(func() { agent.Close() })
		return member{node, agent}
	}
	renew := func(m member) {
		t.Helper()
		if rejoin, err := m.agent.Renew(ctx); err != nil || rejoin {
			t.Fatalf("renew %s: rejoin=%v err=%v", m.node.ID(), rejoin, err)
		}
	}

	a, b := start("node-a"), start("node-b")
	for _, m := range []member{a, b} {
		if err := m.agent.Join(ctx); err != nil {
			t.Fatal(err)
		}
	}
	renew(a) // a joined before b activated; both now hold the two-member view
	key := keyFirstOwnedBy(t, cfg, []string{"node-a", "node-b", "node-c"}, "node-c")

	reference := NewMemory(0)
	writer := NewClusterClient(nil, nsAddr)
	defer writer.Close()
	store := func(seq int) {
		t.Helper()
		pts := [][2]float64{{float64(seq), 0.25 + float64(seq)/100}}
		if err := writer.Store(ctx, key, pts); err != nil {
			t.Fatalf("store seq %d: %v", seq, err)
		}
		reference.Handle(Request{Op: OpStore, Series: key, Points: pts})
	}
	for seq := 1; seq <= 5; seq++ {
		store(seq)
	}
	staleEpoch := writer.View().Epoch

	// c runs its full two-phase join: it backfills the key's history from a
	// and b and becomes the key's first owner.
	c := start("node-c")
	if err := c.agent.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.node.Memory().Len(key); got != 5 {
		t.Fatalf("joiner backfilled %d points of %s, want 5", got, key)
	}

	// The window: the writer still routes by the old view, and neither old
	// owner has renewed, so both acknowledge a point c is never sent.
	store(6)
	if got := writer.View().Epoch; got != staleEpoch {
		t.Fatalf("writer's view moved to epoch %d during the window; the scenario needs it stale", got)
	}

	renew(a)
	renew(b)
	renew(c)

	reader := NewClusterClient(nil, nsAddr)
	defer reader.Close()
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
	view := reader.View()
	byID := map[string]member{"node-a": a, "node-b": b, "node-c": c}
	wantDigest, _ := reference.Digest(key)
	for _, m := range view.Owners(string(KindMemory), key) {
		d, _ := byID[m.ID].node.Memory().Digest(key)
		if d != wantDigest {
			t.Fatalf("owner %s digest %+v, want %+v", m.ID, d, wantDigest)
		}
	}
}
