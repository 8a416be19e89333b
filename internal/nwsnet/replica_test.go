package nwsnet

import (
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/resilience"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// fastClient returns a client with snappy retries for failure-path tests.
func fastClient() *Client {
	return NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	})
}

// startReplicaSet runs n memory servers and returns them with their
// addresses. The servers are NOT auto-cleaned so tests can kill them.
func startReplicaSet(t *testing.T, n int) ([]*Memory, []*Server, []string) {
	t.Helper()
	mems := make([]*Memory, n)
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := range mems {
		mems[i] = NewMemory(0)
		srvs[i] = NewServer(mems[i], nil)
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		s := srvs[i]
		t.Cleanup(func() { s.Close() })
	}
	return mems, srvs, addrs
}

// groupMaker builds a majority-quorum router over addrs whose preference
// order for key is the order of addrs.
type groupMaker func(tr Transport, addrs []string, key string) *ReplicaGroup

// eachPlacement runs fn under both placements of the one router: a fixed
// group in configuration order, and a view placement whose adopted view
// makes every endpoint an owner of every key (replication = the group
// size), with member IDs handed out so the ring prefers addrs in order for
// the key under test. The view's registry is unreachable, so whatever
// passes did so on the adopted view alone.
func eachPlacement(t *testing.T, fn func(t *testing.T, group groupMaker)) {
	t.Run("fixed", func(t *testing.T) {
		fn(t, func(tr Transport, addrs []string, _ string) *ReplicaGroup {
			return NewReplicaGroupTransport(tr, addrs, 0)
		})
	})
	t.Run("view", func(t *testing.T) {
		fn(t, func(tr Transport, addrs []string, key string) *ReplicaGroup {
			cfg := cluster.Config{Replication: len(addrs), VNodes: 8}
			ids := make([]string, len(addrs))
			for i := range ids {
				ids[i] = fmt.Sprintf("m%d", i)
			}
			v := cluster.View{Epoch: 1, Config: cfg}
			for i, id := range cluster.NewRing(ids, cfg.VNodes, cfg.Seed).Owners(key, len(ids)) {
				v.Members = append(v.Members, cluster.Member{ID: id, Kind: string(KindMemory), Addr: addrs[i], State: cluster.StateActive})
			}
			g := NewReplicaGroupCluster(tr, "127.0.0.1:1")
			g.table.adopt(v)
			if got, err := g.owners(context.Background(), key); err != nil || !slices.Equal(got, addrs) {
				t.Fatalf("view owners of %q = %v, %v; want %v", key, got, err, addrs)
			}
			return g
		})
	})
}

// healthy reports the group's last observation of addr.
func healthy(t *testing.T, g *ReplicaGroup, addr string) bool {
	t.Helper()
	for _, h := range g.Health() {
		if h.Addr == addr {
			return h.Healthy
		}
	}
	t.Fatalf("%s is not in the group's health report", addr)
	return false
}

// storeOne writes one series' points through g, a batch of one, and returns
// that sub-store's own failure.
func storeOne(ctx context.Context, g *ReplicaGroup, key string, points [][2]float64) error {
	if errs, err := g.StoreBatch(ctx, []BatchStore{{Series: key, Points: points}}); err != nil {
		return errs[0]
	}
	return nil
}

func TestReplicaGroupQuorumDefaults(t *testing.T) {
	g := NewReplicaGroup(fastClient(), []string{"a:1", "b:1", "c:1"}, 0)
	if g.quorum != 2 {
		t.Fatalf("majority of 3 = %d, want 2", g.quorum)
	}
	if q := NewReplicaGroup(fastClient(), []string{"a:1"}, 0).quorum; q != 1 {
		t.Fatalf("majority of 1 = %d, want 1", q)
	}
	if q := NewReplicaGroup(fastClient(), []string{"a:1", "b:1"}, 99).quorum; q != 2 {
		t.Fatalf("oversized quorum = %d, want clamped to 2", q)
	}
	if got := g.endpoints(); len(got) != 3 || got[0] != "a:1" {
		t.Fatalf("endpoints = %v", got)
	}
}

func TestReplicaGroupWritesFanOut(t *testing.T) {
	mems, _, addrs := startReplicaSet(t, 3)
	g := NewReplicaGroup(fastClient(), addrs, 0)
	ctx := context.Background()

	if err := storeOne(ctx, g, "k", [][2]float64{{1, 0.5}, {2, 0.6}}); err != nil {
		t.Fatal(err)
	}
	for i, m := range mems {
		if m.Len("k") != 2 {
			t.Fatalf("replica %d holds %d points, want 2", i, m.Len("k"))
		}
	}
	for _, h := range g.Health() {
		if !h.Healthy {
			t.Fatalf("replica %s unhealthy after clean write", h.Addr)
		}
	}
}

func TestReplicaGroupQuorumSurvivesOneDeadReplica(t *testing.T) {
	mems, srvs, addrs := startReplicaSet(t, 3)
	g := NewReplicaGroup(fastClient(), addrs, 0)
	ctx := context.Background()

	if err := srvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeOne(ctx, g, "k", [][2]float64{{1, 0.5}}); err != nil {
		t.Fatalf("store with 2/3 replicas up: %v", err)
	}
	if mems[1].Len("k") != 1 || mems[2].Len("k") != 1 {
		t.Fatal("surviving replicas missed the write")
	}
	h := g.Health()
	if h[0].Healthy || !h[1].Healthy || !h[2].Healthy {
		t.Fatalf("health after dead primary = %+v", h)
	}
	if got := mReplicaHealthy.With(addrs[0]).Value(); got != 0 {
		t.Fatalf("nws_replica_healthy{%s} = %g, want 0", addrs[0], got)
	}
}

func TestReplicaGroupQuorumFailure(t *testing.T) {
	qf0 := mReplicaQuorumFailures.Value()
	_, srvs, addrs := startReplicaSet(t, 3)
	g := NewReplicaGroup(fastClient(), addrs, 0)
	ctx := context.Background()

	srvs[0].Close()
	srvs[1].Close()
	if err := storeOne(ctx, g, "k", [][2]float64{{1, 0.5}}); err == nil {
		t.Fatal("store with 1/3 replicas met a quorum of 2")
	}
	if got := mReplicaQuorumFailures.Value() - qf0; got != 1 {
		t.Fatalf("quorum failure delta = %d, want 1", got)
	}
}

func TestReplicaGroupReadFailover(t *testing.T) {
	fo0 := mReplicaFailovers.Value()
	_, srvs, addrs := startReplicaSet(t, 3)
	g := NewReplicaGroup(fastClient(), addrs, 0)
	ctx := context.Background()

	if err := storeOne(ctx, g, "k", [][2]float64{{1, 0.5}}); err != nil {
		t.Fatal(err)
	}
	// Kill the preferred replica: the read must fail over.
	srvs[0].Close()
	pts, err := g.Fetch(ctx, "k", 0, 0, 0)
	if err != nil || len(pts) != 1 {
		t.Fatalf("failover fetch = %v, %v", pts, err)
	}
	if got := mReplicaFailovers.Value() - fo0; got != 1 {
		t.Fatalf("failover delta = %d, want 1", got)
	}
	// The failed replica is demoted: the next read goes straight to a
	// healthy one and does not count another failover.
	if _, err := g.Fetch(ctx, "k", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := mReplicaFailovers.Value() - fo0; got != 1 {
		t.Fatalf("failover delta after demotion = %d, want still 1", got)
	}
	names, err := g.Series(ctx)
	if err != nil || len(names) != 1 || names[0] != "k" {
		t.Fatalf("Series through failover = %v, %v", names, err)
	}
}

func TestReplicaGroupProtocolErrorStaysHealthy(t *testing.T) {
	eachPlacement(t, testProtocolErrorStaysHealthy)
}

func testProtocolErrorStaysHealthy(t *testing.T, group groupMaker) {
	_, _, addrs := startReplicaSet(t, 2)
	g := group(released(t, fastClient()), addrs, "missing")
	ctx := context.Background()

	if _, err := g.Fetch(ctx, "missing", 0, 0, 0); err == nil {
		t.Fatal("fetch of unknown series succeeded")
	}
	res, err := g.FetchBatch(ctx, []BatchFetch{{Series: "missing"}})
	if err != nil || len(res) != 1 || res[0].Err == nil {
		t.Fatalf("batch fetch of unknown series = %+v, %v; want a per-sub rejection", res, err)
	}
	for _, h := range g.Health() {
		if !h.Healthy {
			t.Fatalf("protocol rejection marked %s unhealthy", h.Addr)
		}
	}
}

func TestReplicaGroupDivergedReplicaFallsThrough(t *testing.T) {
	eachPlacement(t, testDivergedReplicaFallsThrough)
}

func testDivergedReplicaFallsThrough(t *testing.T, group groupMaker) {
	// A replica that missed a write answers "unknown series"; the read must
	// fall through to one that has it.
	mems, _, addrs := startReplicaSet(t, 2)
	g := group(released(t, fastClient()), addrs, "d")
	ctx := context.Background()

	// Write directly to replica 1 only, simulating divergence.
	if resp := mems[1].Handle(Request{Op: OpStore, Series: "d", Points: [][2]float64{{1, 1}}}); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	pts, err := g.Fetch(ctx, "d", 0, 0, 0)
	if err != nil || len(pts) != 1 {
		t.Fatalf("diverged fetch = %v, %v", pts, err)
	}
	res, err := g.FetchBatch(ctx, []BatchFetch{{Series: "d"}})
	if err != nil || len(res) != 1 || res[0].Err != nil || len(res[0].Points) != 1 {
		t.Fatalf("diverged batch fetch = %+v, %v", res, err)
	}
}

func TestReplicaGroupRedeliveryConverges(t *testing.T) {
	eachPlacement(t, testRedeliveryConverges)
}

func testRedeliveryConverges(t *testing.T, group groupMaker) {
	// Redelivering a backlog batch must converge on a replica that already
	// holds a prefix of it (it acked during a failed quorum round): the
	// memory server dedups points at or before its frontier instead of
	// wedging every future store on "out-of-order append".
	mems, _, addrs := startReplicaSet(t, 2)
	g := group(released(t, fastClient()), addrs, "k") // a majority of two: both must ack
	ctx := context.Background()

	// Replica 0 is ahead: it accepted [1, 2] during a round that missed
	// quorum, so the writer still has those points in its backlog.
	if resp := mems[0].Handle(Request{Op: OpStore, Series: "k",
		Points: [][2]float64{{1, 0.1}, {2, 0.2}}}); resp.Error != "" {
		t.Fatal(resp.Error)
	}

	// The redelivered batch overlaps replica 0 and is new to replica 1.
	batch := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	if err := storeOne(ctx, g, "k", batch); err != nil {
		t.Fatalf("redelivered store did not converge: %v", err)
	}
	for i, m := range mems {
		if m.Len("k") != 3 {
			t.Fatalf("replica %d holds %d points, want 3", i, m.Len("k"))
		}
	}

	// A fully stale batch (older than every replica) is absorbed by the
	// server-side dedup: no error, and no replica's series changes.
	if err := storeOne(ctx, g, "k", [][2]float64{{0, 0.9}}); err != nil {
		t.Fatalf("stale batch errored instead of deduping: %v", err)
	}
	for i, m := range mems {
		if m.Len("k") != 3 {
			t.Fatalf("replica %d holds %d points after stale batch, want 3", i, m.Len("k"))
		}
	}
}

func TestSensorBacklogDrainsAfterQuorumLoss(t *testing.T) {
	// The end-to-end wedge: quorum lost with one survivor, the survivor
	// accepts early backlog rounds and gets ahead of the retried batch;
	// when a second replica returns, the drain must converge everywhere.
	mems, srvs, addrs := startReplicaSet(t, 3)

	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemon("qhost", sensors.SimHost{H: h}, addrs)
	defer d.Close()

	step := func(wantErr bool) {
		t.Helper()
		h.RunUntil(h.Now() + 10)
		err := d.Step()
		if wantErr && err == nil {
			t.Fatal("step met quorum with 1/3 replicas up")
		}
		if !wantErr && err != nil {
			t.Fatal(err)
		}
	}

	step(false)
	step(false)
	srvs[1].Close()
	srvs[2].Close()
	for i := 0; i < 3; i++ {
		step(true) // survivor 0 accepts what it can; quorum still fails
	}
	if d.Backlogged() == 0 {
		t.Fatal("no backlog accumulated during quorum loss")
	}

	// One replica returns on its old address.
	srv1b := NewServer(mems[1], nil)
	if _, err := srv1b.Listen(addrs[1]); err != nil {
		t.Skipf("could not rebind %s: %v", addrs[1], err)
	}
	defer srv1b.Close()

	step(false) // backlog + fresh measurement must reach quorum again
	if n := d.Backlogged(); n != 0 {
		t.Fatalf("backlog not drained after quorum recovery: %d left", n)
	}
	// Both quorum members hold the complete series through the final step.
	key := SeriesKey("qhost", "vmstat")
	for _, i := range []int{0, 1} {
		pts, err := fastClient().FetchCtx(context.Background(), addrs[i], key, 0, 0, 0)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if last := pts[len(pts)-1][0]; last != h.Now() {
			t.Fatalf("replica %d ends at t=%v, want %v (measurements lost)", i, last, h.Now())
		}
		// Every measurement timestamp must be present (duplicates from
		// redelivery are fine; gaps are not).
		seen := map[float64]bool{}
		for _, p := range pts {
			seen[p[0]] = true
		}
		if len(seen) != 6 {
			t.Fatalf("replica %d holds %d distinct timestamps, want 6", i, len(seen))
		}
	}
}

// TestReplicaGroupStoreRestoresHealth: a replica marked unhealthy by a
// failed store is marked healthy again, nws_replica_healthy included, by the
// next store it acknowledges.
func TestReplicaGroupStoreRestoresHealth(t *testing.T) {
	m := NewMemory(0)
	srv := NewServer(m, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := NewReplicaGroup(fastClient(), []string{addr}, 0)
	ctx := context.Background()

	srv.Close()
	if err := storeOne(ctx, g, "k", [][2]float64{{1, 1}}); err == nil {
		t.Fatal("store to dead replica succeeded")
	}
	if g.Health()[0].Healthy {
		t.Fatal("dead replica still healthy")
	}

	srv2 := NewServer(m, nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := storeOne(ctx, g, "k", [][2]float64{{2, 1}}); err != nil {
		t.Fatalf("store to revived replica: %v", err)
	}
	if !g.Health()[0].Healthy {
		t.Fatal("a successful store did not restore the revived replica")
	}
	if got := mReplicaHealthy.With(addr).Value(); got != 1 {
		t.Fatalf("nws_replica_healthy{%s} = %g, want 1", addr, got)
	}
}

func TestReplicaOrderingConsultsBreakerBeforeHealth(t *testing.T) {
	eachPlacement(t, testOrderingConsultsBreakerBeforeHealth)
}

func testOrderingConsultsBreakerBeforeHealth(t *testing.T, group groupMaker) {
	// Replica A is preferred by configuration and still marked healthy, but
	// its circuit breaker is open: failover must order it last and serve
	// reads from B without spending an attempt on A — and a breaker denial
	// must not flip A's health mark (it is not an observation of A).
	var dials int64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			atomic.AddInt64(&dials, 1)
			c.Close()
		}
	}()
	deadAddr := l.Addr().String()

	mems, _, addrs := startReplicaSet(t, 1)
	liveAddr := addrs[0]
	mems[0].Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.5}}})

	c := NewClientOptions(ClientOptions{
		Timeout: 500 * time.Millisecond,
		Retry:   resilience.Policy{MaxAttempts: 1},
		Breaker: true,
	})
	t.Cleanup(func() { c.Close() })
	g := group(c, []string{deadAddr, liveAddr}, "k")

	// Trip A's breaker directly (five observed failures) while its health
	// mark still says healthy from initialization.
	for i := 0; i < 5; i++ {
		c.breakerFor(deadAddr).Record(false)
	}
	if got := c.BreakerState(deadAddr); got != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	if !healthy(t, g, deadAddr) {
		t.Fatal("test setup: A should still be marked healthy")
	}

	ord := g.ordered([]string{deadAddr, liveAddr})
	if ord[0] != liveAddr {
		t.Fatalf("read order starts with %s, want the live replica %s (open breaker must sort last)", ord[0], liveAddr)
	}

	before := atomic.LoadInt64(&dials)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		pts, err := g.Fetch(ctx, "k", 0, 0, 0)
		if err != nil || len(pts) != 1 {
			t.Fatalf("fetch %d = %v, %v; want the stored point", i, pts, err)
		}
	}
	if got := atomic.LoadInt64(&dials); got != before {
		t.Fatalf("fetches dialed the open-breaker replica %d times", got-before)
	}
	if !healthy(t, g, deadAddr) {
		t.Fatal("breaker denial flipped A's health mark")
	}
}

// TestViewPlacementNeverWritesDepartedEndpoint: a member that missed a
// write and then left the view is neither written nor reported again, even
// once it answers.
func TestViewPlacementNeverWritesDepartedEndpoint(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	v := cluster.View{Epoch: 1, Config: cluster.Config{Replication: 3, VNodes: 8}}
	for i, a := range addrs {
		v.Members = append(v.Members, cluster.Member{ID: fmt.Sprintf("m%d", i), Kind: string(KindMemory), Addr: a, State: cluster.StateActive})
	}
	g := NewReplicaGroupCluster(lt, "registry") // never registered: any registry call fails
	g.table.adopt(v)
	ctx := context.Background()

	lt.SetDown(addrs[2], true)
	if err := storeOne(ctx, g, "k", [][2]float64{{1, 0.1}, {2, 0.2}}); err != nil {
		t.Fatalf("store with 2/3 owners up: %v", err)
	}

	// The downed member's lease lapses: it leaves the view, then answers again.
	v2 := v.Clone()
	v2.Epoch, v2.Members = 2, v2.Members[:2]
	g.table.adopt(v2)
	lt.SetDown(addrs[2], false)
	if err := storeOne(ctx, g, "k", [][2]float64{{3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if n := mems[2].Len("k"); n != 0 {
		t.Fatalf("departed endpoint was written: %d points", n)
	}
	if h := g.Health(); len(h) != 2 {
		t.Fatalf("health after the view change = %+v, want the 2 remaining members", h)
	}
}

// TestReplicaGroupAllocs pins the fixed placement's allocations per call at
// the numbers measured on ReplicaGroup before it also became the cluster
// router (17 and 4, LocalTransport's and Memory's own included): routing
// through an ownership function must not cost the fixed group anything.
func TestReplicaGroupAllocs(t *testing.T) {
	lt, _, addrs := localReplicaSet(2)
	g := NewReplicaGroupTransport(lt, addrs, 2)
	ctx := context.Background()
	stores := []BatchStore{
		{Series: "a", Points: make([][2]float64, 1)},
		{Series: "b", Points: make([][2]float64, 1)},
		{Series: "c", Points: make([][2]float64, 1)},
	}
	seq := 0.0
	store := testing.AllocsPerRun(200, func() {
		seq++
		for i := range stores {
			stores[i].Points[0] = [2]float64{seq, 0.5}
		}
		if _, err := g.StoreBatch(ctx, stores); err != nil {
			t.Fatal(err)
		}
	})
	fetch := testing.AllocsPerRun(200, func() {
		if _, err := g.Fetch(ctx, "a", 0, 0, 4); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per call: StoreBatch(3 subs) %.0f, Fetch %.0f", store, fetch)
	if store > 17 || fetch > 4 {
		t.Fatalf("allocs per call: StoreBatch(3 subs) %.0f (parent 17), Fetch %.0f (parent 4)", store, fetch)
	}
}
