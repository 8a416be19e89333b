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
// (two-phase join plus background lease renewal every interval of clk).
func startChaosNode(t *testing.T, nsAddr, id string, interval time.Duration, clk clock) *chaosNode {
	t.Helper()
	n := &chaosNode{id: id, node: NewClusterNode(id, NewMemory(0))}
	n.srv = NewServer(n.node, nil)
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = addr
	n.agent = NewClusterAgent(nil, nsAddr, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addr}, n.node)
	n.agent.renewals.clk = clk
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
// shed nor an ownership redirect. The registry and every agent share one
// fake clock, advanced a heartbeat at a time.
func TestChaosClusterShardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario streams writes over real sockets")
	}
	const (
		ttl       = 900 * time.Millisecond
		heartbeat = 150 * time.Millisecond
		nKeys     = 12
	)
	ns, fc := fakeNameServer(ttl, cluster.Config{Replication: 2, VNodes: 32})
	// beat advances the clock n heartbeats. Each beat's renewals are taken
	// only once the previous beat's have returned, so after beat(n) every
	// live agent has finished at least n-1 renewal passes.
	beat := func(n int) {
		for i := 0; i < n; i++ {
			fc.advance(heartbeat)
		}
	}
	nsSrv := NewServer(ns, nil)
	nsAddr, err := nsSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nsSrv.Close()

	nodes := make([]*chaosNode, 3)
	for i := range nodes {
		nodes[i] = startChaosNode(t, nsAddr, fmt.Sprintf("node-%d", i), heartbeat, fc)
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
		waitFor(t, 20*time.Second, "writer progress: "+why, func() bool {
			mu.Lock()
			r, v := rounds, violation
			mu.Unlock()
			if v != nil {
				t.Fatal(v)
			}
			return r >= n
		})
	}
	probe := NewClient(0)
	defer probe.Close()
	activeView := func() (cluster.View, int) {
		t.Helper()
		v, err := probe.FetchViewCtx(ctx, nsAddr, 0)
		if err != nil || v == nil {
			t.Fatalf("registry view: %v", err)
		}
		return *v, len(v.Active(string(KindMemory)))
	}

	// Phase 1: healthy baseline, once every agent has renewed into the
	// view the last join made.
	beat(2)
	waitRounds(3, "healthy baseline")

	// Phase 2: kill one shard owner mid-run. Its lease lapses a TTL after
	// its last renewal, the epoch bumps, and the survivors' renewal-driven
	// re-sync takes over its ranges from the surviving replica of each
	// series.
	nodes[1].kill()
	var v cluster.View
	for beats := 1; ; beats++ {
		beat(1)
		var active int
		v, active = activeView()
		if active == 2 {
			if want := int(ttl / heartbeat); beats != want {
				t.Fatalf("lease lapsed %d heartbeats after the kill, want %d (the TTL)", beats, want)
			}
			break
		}
		if active != 3 || beats > int(ttl/heartbeat) {
			t.Fatalf("view has %d active members %d heartbeats after the kill", active, beats)
		}
	}
	for _, m := range v.Active(string(KindMemory)) {
		if m.ID == "node-1" {
			t.Fatal("killed node still active in the view")
		}
	}
	beat(2) // the survivors adopt the view and re-sync
	mu.Lock()
	afterKill := rounds
	mu.Unlock()
	waitRounds(afterKill+3, "writes resuming after the kill")

	// Phase 3: a fresh replacement joins and takes the reassigned ranges
	// over via the two-phase handoff, while writes keep flowing.
	replacement := startChaosNode(t, nsAddr, "node-3", heartbeat, fc)
	if _, active := activeView(); active != 3 {
		t.Fatalf("view has %d active members after the replacement joined, want 3", active)
	}
	beat(2)
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

	// Let every agent finish two renewal passes after the last write, so
	// any in-flight takeover sync is done, then verify convergence: every
	// series read through the routing table must be bit-identical to the
	// single-node reference.
	beat(3)
	for _, key := range keys {
		want := reference.Handle(Request{Op: OpFetch, Series: key})
		if want.Error != "" {
			t.Fatalf("reference fetch %s: %s", key, want.Error)
		}
		got, err := cc.Fetch(ctx, key, 0, 0, 0)
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
	final, active := activeView()
	if active != 3 {
		t.Fatalf("final view has %d active members, want 3", active)
	}
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
