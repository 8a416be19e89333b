package nwsnet

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
)

// chaosNode is one live shard of the chaos cluster: the guarded memory, its
// server, and the lease-renewing agent.
type chaosNode struct {
	id    string
	node  *ClusterNode
	srv   *Server
	addr  string
	agent *ClusterAgent
}

// startChaosNode brings up a shard server and runs the full agent lifecycle
// (two-phase join plus background lease renewal at interval).
func startChaosNode(t *testing.T, nsAddr, id string, interval time.Duration) *chaosNode {
	t.Helper()
	n := &chaosNode{id: id, node: NewClusterNode(id, NewMemory(0))}
	n.srv = NewServer(n.node, nil)
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	n.agent = NewClusterAgent(nil, nsAddr, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addr}, n.node)
	if err := n.agent.Start(context.Background(), interval); err != nil {
		n.srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { n.kill() })
	return n
}

// kill tears the shard down hard: the agent stops renewing (so the lease
// lapses) and the server drops off the network. Idempotent.
func (n *chaosNode) kill() {
	n.agent.Stop()
	n.agent.Close()
	n.srv.Close()
}

// TestChaosClusterShardFailover is the partitioned cluster's acceptance
// scenario: writers stream measurements through the routing table while one
// shard owner is killed mid-run; its lease lapses, the epoch moves the dead
// node's ranges to the survivors, and a joining replacement takes them over
// via rebalancing handoff. The run must lose zero measurements — every
// series converges bit-identical to a single-node reference fed the same
// points — and unavailability must stay bounded: every write eventually
// lands, and no write fails with a terminal error that is neither a busy
// shed nor an ownership redirect.
func TestChaosClusterShardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario needs real lease expiry time")
	}
	const (
		ttl       = 900 * time.Millisecond
		heartbeat = 150 * time.Millisecond
		nKeys     = 12
	)
	ns := NewNameServer(ttl, cluster.Config{Replication: 2, VNodes: 32})
	nsSrv := NewServer(ns, nil)
	nsAddr, err := nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsSrv.Close()

	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		nodes[i] = startChaosNode(t, nsAddr, fmt.Sprintf("node-%d", i), heartbeat)
	}

	ctx := context.Background()
	cc := NewReplicaGroupCluster(released(t, NewClient(0)), nsAddr)

	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("host%02d/cpu/nws_hybrid", i)
	}

	// The single-node reference: the same points in the same order, so the
	// zero-loss check is a bit-identical series comparison at the end.
	reference := NewMemory(0)

	// The writer streams one point per key per round through the cluster,
	// retrying each point until an owner quorum acknowledges it. It records
	// any terminal error that is neither busy nor moved — the unavailability
	// bound the scenario must hold.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var (
		mu        sync.Mutex
		rounds    int
		retries   int
		violation error
	)
	go func() {
		defer close(writerDone)
		for seq := 1; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			for ki, key := range keys {
				pt := [2]float64{float64(seq), 0.5 + 0.4*math.Sin(float64(seq*31+ki*7))}
				for attempt := 0; ; attempt++ {
					err := storeOne(ctx, cc, key, [][2]float64{pt})
					if err == nil {
						break
					}
					if resilience.IsTerminal(err) && !IsBusy(err) {
						if _, moved := IsMoved(err); !moved {
							mu.Lock()
							if violation == nil {
								violation = fmt.Errorf("store %s seq %d: terminal non-redirect error: %w", key, seq, err)
							}
							mu.Unlock()
						}
					}
					if attempt > 600 {
						mu.Lock()
						if violation == nil {
							violation = fmt.Errorf("store %s seq %d: never acknowledged: %w", key, seq, err)
						}
						mu.Unlock()
						return
					}
					mu.Lock()
					retries++
					mu.Unlock()
					time.Sleep(20 * time.Millisecond)
				}
				// Acknowledged by a quorum: the measurement is durable.
				reference.Handle(Request{Op: OpStore, Series: key, Points: [][2]float64{pt}})
			}
			mu.Lock()
			rounds++
			mu.Unlock()
		}
	}()

	waitRounds := func(n int, why string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			r, v := rounds, violation
			mu.Unlock()
			if v != nil {
				t.Fatal(v)
			}
			if r >= n {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("writer stalled waiting for %s", why)
	}
	waitView := func(wantActive int, why string) cluster.View {
		t.Helper()
		probe := NewClient(0)
		defer probe.Close()
		deadline := time.Now().Add(3*ttl + 10*time.Second)
		for time.Now().Before(deadline) {
			if v, err := probe.FetchViewCtx(ctx, nsAddr, 0); err == nil && v != nil {
				if len(v.Active(string(KindMemory))) == wantActive {
					return *v
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("view never reached %d active members (%s)", wantActive, why)
		return cluster.View{}
	}

	// Phase 1: healthy baseline.
	waitRounds(3, "healthy baseline")

	// Phase 2: kill one shard owner mid-run. Its lease lapses a TTL later,
	// the epoch bumps, and the survivors' renewal-driven re-sync takes over
	// its ranges from the surviving replica of each series.
	nodes[1].kill()
	killedAt := time.Now()
	v := waitView(2, "lease expiry after kill")
	if got := time.Since(killedAt); got > ttl+10*time.Second {
		t.Fatalf("lease expiry took %v", got)
	}
	for _, m := range v.Active(string(KindMemory)) {
		if m.ID == "node-1" {
			t.Fatal("killed node still active in the view")
		}
	}
	mu.Lock()
	afterKill := rounds
	mu.Unlock()
	waitRounds(afterKill+3, "writes resuming after the kill")

	// Phase 3: a fresh replacement joins and takes the reassigned ranges
	// over via the two-phase handoff, while writes keep flowing.
	replacement := startChaosNode(t, nsAddr, "node-3", heartbeat)
	waitView(3, "replacement activation")
	mu.Lock()
	afterJoin := rounds
	mu.Unlock()
	waitRounds(afterJoin+3, "writes continuing through the join")

	close(stop)
	<-writerDone
	mu.Lock()
	finalRounds, finalRetries, v2 := rounds, retries, violation
	mu.Unlock()
	if v2 != nil {
		t.Fatal(v2)
	}
	t.Logf("chaos run: %d rounds × %d keys, %d retries during the outage window", finalRounds, nKeys, finalRetries)

	// Give the survivors one heartbeat to finish any in-flight takeover
	// sync, then verify convergence: every series read through the routing
	// table must be bit-identical to the single-node reference.
	time.Sleep(2 * heartbeat)
	for _, key := range keys {
		want := reference.Handle(Request{Op: OpFetch, Series: key})
		if want.Error != "" {
			t.Fatalf("reference fetch %s: %s", key, want.Error)
		}
		var got [][2]float64
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			got, err = cc.Fetch(ctx, key, 0, 0, 0)
			if err == nil {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("cluster fetch %s: %v", key, err)
		}
		if len(got) != len(want.Points) {
			t.Fatalf("%s: cluster holds %d points, reference %d — measurements lost or duplicated",
				key, len(got), len(want.Points))
		}
		for i := range got {
			if got[i] != want.Points[i] {
				t.Fatalf("%s point %d: cluster %v != reference %v", key, i, got[i], want.Points[i])
			}
		}
	}

	// The killed node's ranges must live on the replacement now: the new
	// ring's owners for every key exclude node-1, and each owner serves the
	// key's full history locally.
	final := waitView(3, "final view")
	ring := final.Ring(string(KindMemory))
	byID := map[string]*chaosNode{"node-0": nodes[0], "node-2": nodes[2], "node-3": replacement}
	replacementOwns := 0
	for _, key := range keys {
		for _, owner := range ring.Owners(key, final.Config.Normalize().Replication) {
			if owner == "node-1" {
				t.Fatalf("dead node still owns %s", key)
			}
			if owner == "node-3" {
				replacementOwns++
			}
			if n := byID[owner]; n != nil && n.node.Memory().Len(key) == 0 {
				t.Fatalf("owner %s holds no points of %s", owner, key)
			}
		}
	}
	if replacementOwns == 0 {
		t.Fatal("replacement owns no key ranges — handoff never moved anything")
	}
}
