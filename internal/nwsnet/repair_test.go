package nwsnet

import (
	"context"
	"math"
	"testing"
	"time"

	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// localReplicaSet builds n in-process memories behind a LocalTransport at
// addresses "mem-0".."mem-(n-1)".
func localReplicaSet(n int) (*LocalTransport, []*Memory, []string) {
	lt := NewLocalTransport()
	mems := make([]*Memory, n)
	addrs := make([]string, n)
	for i := range mems {
		mems[i] = NewMemory(0)
		addrs[i] = "mem-" + string(rune('0'+i))
		lt.Register(addrs[i], mems[i])
	}
	return lt, mems, addrs
}

// digestsEqual reports whether two memories hold bit-identical series sets.
func digestsEqual(a, b *Memory) bool {
	da, db := a.Digests(""), b.Digests("")
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

func TestSeriesDigestIdentity(t *testing.T) {
	a, b := NewMemory(0), NewMemory(0)
	pts := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	a.Handle(Request{Op: OpStore, Series: "k", Points: pts})
	b.Handle(Request{Op: OpStore, Series: "k", Points: pts})
	da, ok := a.Digest("k")
	if !ok {
		t.Fatal("digest of stored series missing")
	}
	db, _ := b.Digest("k")
	if da != db {
		t.Fatalf("identical series digest mismatch: %+v vs %+v", da, db)
	}
	if da.Count != 3 || da.Frontier != 3 {
		t.Fatalf("digest = %+v, want count 3 frontier 3", da)
	}

	// A single flipped value changes the checksum even with count and
	// frontier equal.
	c := NewMemory(0)
	c.Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.1}, {2, 0.9}, {3, 0.3}}})
	if dc, _ := c.Digest("k"); dc.Sum == da.Sum {
		t.Fatal("value flip did not change the checksum")
	}

	// PrefixDigest over the whole series matches the full digest; a shorter
	// prefix matches a memory holding just that prefix.
	if p := a.PrefixDigest("k", 3); p != da {
		t.Fatalf("full prefix digest %+v != digest %+v", p, da)
	}
	short := NewMemory(0)
	short.Handle(Request{Op: OpStore, Series: "k", Points: pts[:2]})
	ds, _ := short.Digest("k")
	if p := a.PrefixDigest("k", 2); p.Count != ds.Count || p.Sum != ds.Sum {
		t.Fatalf("prefix digest %+v != short-series digest %+v", p, ds)
	}

	if _, ok := a.Digest("absent"); ok {
		t.Fatal("digest of unknown series reported ok")
	}
}

func TestLocalTransportFaultModes(t *testing.T) {
	lt, mems, addrs := localReplicaSet(1)
	ctx := context.Background()
	stores := []BatchStore{{Series: "k", Points: [][2]float64{{1, 0.5}}}}

	if _, err := lt.StoreBatchCtx(ctx, "nowhere", stores); err == nil {
		t.Fatal("store to unregistered address succeeded")
	}

	lt.SetDown(addrs[0], true)
	if err := lt.PingCtx(ctx, addrs[0]); err == nil {
		t.Fatal("ping of down node succeeded")
	}
	if _, err := lt.StoreBatchCtx(ctx, addrs[0], stores); err == nil {
		t.Fatal("store to down node succeeded")
	}
	if mems[0].Len("k") != 0 {
		t.Fatal("down node applied a store")
	}

	// Partitioned: the call fails but the write took effect.
	lt.SetDown(addrs[0], false)
	lt.SetPartitioned(addrs[0], true)
	if _, err := lt.StoreBatchCtx(ctx, addrs[0], stores); err == nil {
		t.Fatal("store through partition reported success")
	}
	if mems[0].Len("k") != 1 {
		t.Fatalf("partitioned node holds %d points, want applied write", mems[0].Len("k"))
	}

	lt.SetPartitioned(addrs[0], false)
	if errs, err := lt.StoreBatchCtx(ctx, addrs[0], stores); err != nil || errs[0] != nil {
		t.Fatalf("store after recovery = %v, %v", errs, err)
	}
	pts, err := lt.FetchCtx(ctx, addrs[0], "k", 0, 0, 0)
	if err != nil || len(pts) != 1 {
		t.Fatalf("fetch after recovery = %v, %v", pts, err)
	}
}

func TestHintedHandoffQueuesAndReplays(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	g := NewReplicaGroupTransport(lt, addrs, 2)
	ctx := context.Background()

	lt.SetDown(addrs[2], true)
	if err := g.Store(ctx, "k", [][2]float64{{1, 0.1}, {2, 0.2}}); err != nil {
		t.Fatalf("quorum store with one down replica: %v", err)
	}
	if hs := g.HintStats(); hs.Queued != 2 {
		t.Fatalf("hint stats after miss = %+v, want 2 queued", hs)
	}
	if mems[2].Len("k") != 0 {
		t.Fatal("down replica holds points")
	}

	// Recovery observation (a successful ping) replays the hints.
	lt.SetDown(addrs[2], false)
	g.CheckHealth(ctx)
	if mems[2].Len("k") != 2 {
		t.Fatalf("recovered replica holds %d points, want 2 from hint replay", mems[2].Len("k"))
	}
	if hs := g.HintStats(); hs.Replayed != 2 || hs.Dropped != 0 {
		t.Fatalf("hint stats after replay = %+v", hs)
	}
	if !digestsEqual(mems[0], mems[2]) {
		t.Fatal("replicas not bit-identical after hint replay")
	}
}

func TestHintedHandoffReplaysOnNextCleanStore(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	g := NewReplicaGroupTransport(lt, addrs, 2)
	ctx := context.Background()

	lt.SetDown(addrs[2], true)
	if err := g.Store(ctx, "k", [][2]float64{{1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	lt.SetDown(addrs[2], false)
	// The next clean write doubles as the recovery observation: the hint
	// (older than the new point) merges in behind it via backfill.
	if err := g.Store(ctx, "k", [][2]float64{{2, 0.2}}); err != nil {
		t.Fatal(err)
	}
	if mems[2].Len("k") != 2 {
		t.Fatalf("replica holds %d points, want 2 (hint merged behind newer write)", mems[2].Len("k"))
	}
	if !digestsEqual(mems[0], mems[2]) {
		t.Fatal("replicas not bit-identical after in-band replay")
	}
}

func TestHintedHandoffPartitionedReplicaIdempotent(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	g := NewReplicaGroupTransport(lt, addrs, 2)
	ctx := context.Background()

	// Applied but unacknowledged: the write lands on the partitioned replica
	// yet the group cannot know, so it parks a hint anyway.
	lt.SetPartitioned(addrs[2], true)
	if err := g.Store(ctx, "k", [][2]float64{{1, 0.5}}); err != nil {
		t.Fatalf("quorum store through partition: %v", err)
	}
	if mems[2].Len("k") != 1 {
		t.Fatal("partitioned replica did not apply the write")
	}
	if hs := g.HintStats(); hs.Queued != 1 {
		t.Fatalf("hint stats = %+v, want 1 queued for the unacked write", hs)
	}

	// Replaying the hint after recovery is a duplicate delivery; backfill
	// dedups it.
	lt.SetPartitioned(addrs[2], false)
	g.CheckHealth(ctx)
	if mems[2].Len("k") != 1 {
		t.Fatalf("replica holds %d points after duplicate replay, want 1", mems[2].Len("k"))
	}
	if !digestsEqual(mems[0], mems[2]) {
		t.Fatal("replicas not bit-identical after idempotent replay")
	}
}

func TestHintCapDropsOldestAndRepairCloses(t *testing.T) {
	eachPlacement(t, testHintCapDropsOldestAndRepairCloses)
}

func testHintCapDropsOldestAndRepairCloses(t *testing.T, group groupMaker) {
	lt, mems, addrs := localReplicaSet(3)
	g := group(lt, addrs, "k")
	g.SetHintCap(2)
	ctx := context.Background()

	lt.SetDown(addrs[2], true)
	if err := g.Store(ctx, "k", [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	if hs := g.HintStats(); hs.Queued != 3 || hs.Dropped != 1 {
		t.Fatalf("hint stats = %+v, want 3 queued / 1 dropped at cap 2", hs)
	}
	lt.SetDown(addrs[2], false)
	g.CheckHealth(ctx)
	if mems[2].Len("k") != 2 {
		t.Fatalf("replica holds %d points, want 2 (oldest hint dropped)", mems[2].Len("k"))
	}

	// Anti-entropy closes what the bounded hints could not.
	rp := NewRepairer(lt, mems[2], addrs[:2])
	n, err := rp.RepairRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repair recovered %d points, want the 1 dropped hint", n)
	}
	if st := rp.Stats(); st.Rounds != 1 || st.PointsRecovered != 1 {
		t.Fatalf("repair stats = %+v", st)
	}
	if !digestsEqual(mems[0], mems[2]) {
		t.Fatal("replicas not bit-identical after repair")
	}
}

func TestRepairerTailLagAndConvergence(t *testing.T) {
	lt, mems, addrs := localReplicaSet(2)
	ctx := context.Background()
	full := [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	mems[0].Handle(Request{Op: OpStore, Series: "k", Points: full})
	mems[1].Handle(Request{Op: OpStore, Series: "k", Points: full[:2]})

	// Pure lag: the repairer pulls only the missing tail.
	rp := NewRepairer(lt, mems[1], addrs[:1])
	n, err := rp.RepairRound(ctx)
	if err != nil || n != 1 {
		t.Fatalf("tail repair = %d, %v; want 1 recovered", n, err)
	}
	if !digestsEqual(mems[0], mems[1]) {
		t.Fatal("replicas not bit-identical after tail repair")
	}

	// In sync: another round moves nothing.
	if n, err := rp.RepairRound(ctx); err != nil || n != 0 {
		t.Fatalf("steady-state repair = %d, %v; want 0 recovered", n, err)
	}

	// Locally ahead: the peer is behind us, so repairing FROM it is a no-op
	// (the peer's own repairer pulls our tail).
	mems[1].Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{4, 0.4}}})
	if n, err := rp.RepairRound(ctx); err != nil || n != 0 {
		t.Fatalf("ahead-of-peer repair = %d, %v; want 0 recovered", n, err)
	}
}

func TestRepairerMidSeriesHoleRefetches(t *testing.T) {
	lt, mems, addrs := localReplicaSet(2)
	ctx := context.Background()
	mems[0].Handle(Request{Op: OpStore, Series: "k",
		Points: [][2]float64{{1, 0.1}, {2, 0.2}, {3, 0.3}, {4, 0.4}}})
	// Same frontier, hole in the middle — the tail path cannot help; the
	// body mismatch forces a full refetch.
	mems[1].Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.1}, {4, 0.4}}})

	rp := NewRepairer(lt, mems[1], addrs[:1])
	n, err := rp.RepairRound(ctx)
	if err != nil || n != 2 {
		t.Fatalf("hole repair = %d, %v; want 2 recovered", n, err)
	}
	if !digestsEqual(mems[0], mems[1]) {
		t.Fatal("replicas not bit-identical after hole repair")
	}
}

func TestRepairRoundSurvivesDownPeer(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	ctx := context.Background()
	pts := [][2]float64{{1, 0.1}, {2, 0.2}}
	mems[0].Handle(Request{Op: OpStore, Series: "k", Points: pts})
	mems[1].Handle(Request{Op: OpStore, Series: "k", Points: pts})
	lt.SetDown(addrs[0], true)

	rp := NewRepairer(lt, mems[2], addrs[:2])
	n, err := rp.RepairRound(ctx)
	if err == nil {
		t.Fatal("round with a down peer reported no error")
	}
	if n != 2 {
		t.Fatalf("round recovered %d points, want 2 from the live peer", n)
	}
	if !digestsEqual(mems[1], mems[2]) {
		t.Fatal("live peer's series not replicated")
	}
}

// TestReplicaDivergenceBeyondBacklogWindow pins the divergence bug the
// repair plane exists for, then flips it to a convergence assertion.
//
// A replica that stays down while writes keep meeting quorum is beyond the
// writer's help: sensord's store-and-forward backlog is cleared on every
// quorum success (and is bounded anyway), so once the outage outlasts the
// backlog window nothing upstream still holds the missed points. Without
// anti-entropy the revived replica is permanently missing the outage range —
// that divergence is asserted first, then one repair round converges the
// group bit-identically with zero measurement loss.
func TestReplicaDivergenceBeyondBacklogWindow(t *testing.T) {
	lt, mems, addrs := localReplicaSet(3)
	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Name: "bg", Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemonReplicas("rhost", sensors.SimHost{H: h}, addrs, 2, sensors.HybridConfig{})
	defer d.Close()
	// Rewire the daemon onto the in-process replica set, hints disabled to
	// isolate the anti-entropy path (hints would cover a bounded slice of
	// the outage; the bug is about everything beyond them).
	g := NewReplicaGroupTransport(lt, addrs, 2)
	g.SetHintCap(0)
	d.group = g
	d.SetBacklogCap(4)

	var steps []float64
	step := func() {
		t.Helper()
		h.RunUntil(h.Now() + 10)
		// The measurement timestamp is the clock at Step entry (the hybrid
		// sensor's probe spin advances it during the step).
		ts := h.Now()
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, ts)
	}

	step()
	step()
	lt.SetDown(addrs[2], true)
	// Outage 3x the backlog window. Every step meets quorum (2/3 up), so
	// the writer forgets each batch immediately — the backlog never grows
	// and cannot heal this replica no matter how large it is.
	for i := 0; i < 3*d.BacklogCap(); i++ {
		step()
	}
	lt.SetDown(addrs[2], false)
	step()
	step()

	// The divergence, pinned: the revived replica took the post-outage
	// writes (same frontier as its peers) but is missing the whole outage.
	key := SeriesKey("rhost", "vmstat")
	d0, _ := mems[0].Digest(key)
	d2, _ := mems[2].Digest(key)
	if d2.Frontier != d0.Frontier {
		t.Fatalf("revived replica frontier %v, want %v (post-outage writes lost)", d2.Frontier, d0.Frontier)
	}
	if missed := int(d0.Count - d2.Count); missed != 3*d.BacklogCap() {
		t.Fatalf("revived replica missing %d points, want the full %d-step outage", missed, 3*d.BacklogCap())
	}
	if digestsEqual(mems[0], mems[2]) {
		t.Fatal("divergence not reproduced: replicas identical without repair")
	}

	// The fix: one anti-entropy round converges the replica bit-identically.
	rp := NewRepairer(lt, mems[2], addrs[:2])
	recovered, err := rp.RepairRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 3 * d.BacklogCap(); recovered != want {
		t.Fatalf("repair recovered %d points, want %d (3 series x outage)", recovered, want)
	}
	if !digestsEqual(mems[0], mems[2]) || !digestsEqual(mems[1], mems[2]) {
		t.Fatal("replicas not bit-identical after repair")
	}
	// Zero measurement loss: every step's timestamp is on every replica.
	for mi, m := range mems {
		resp := m.Handle(Request{Op: OpFetch, Series: key})
		if resp.Error != "" {
			t.Fatalf("replica %d: %s", mi, resp.Error)
		}
		seen := map[float64]bool{}
		for _, p := range resp.Points {
			seen[p[0]] = true
		}
		for _, ts := range steps {
			if !seen[ts] {
				t.Fatalf("replica %d missing measurement at t=%v", mi, ts)
			}
		}
	}
}

func TestRepairerStartStop(t *testing.T) {
	lt, mems, addrs := localReplicaSet(2)
	mems[0].Handle(Request{Op: OpStore, Series: "k", Points: [][2]float64{{1, 0.1}}})
	rp := NewRepairer(lt, mems[1], addrs[:1])
	rp.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for mems[1].Len("k") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rp.Stop()
	rp.Stop() // idempotent
	if mems[1].Len("k") != 1 {
		t.Fatal("background repair loop never converged the replica")
	}
	rounds := rp.Stats().Rounds
	time.Sleep(5 * time.Millisecond)
	if got := rp.Stats().Rounds; got != rounds {
		t.Fatalf("repair loop still running after Stop: %d -> %d rounds", rounds, got)
	}
	rp.Start(time.Millisecond) // start-after-stop is a no-op
	time.Sleep(5 * time.Millisecond)
	if got := rp.Stats().Rounds; got != rounds {
		t.Fatal("Start after Stop relaunched the loop")
	}
}

// BenchmarkRepairRoundInSync prices the steady-state anti-entropy round a
// cluster member now runs on every lease renewal, on the 1000-host grid
// shape (3000 series × 90 points, every series owned and already in sync):
// one OpDigest answered by the peer — O(stored points) hashing there — and
// one prefix digest per series computed locally. docs/PERFORMANCE.md records
// the number.
func BenchmarkRepairRoundInSync(b *testing.B) {
	lt := NewLocalTransport()
	local, peer := NewMemory(0), NewMemory(0)
	lt.Register("peer", peer)
	pts := make([][2]float64, 90)
	for h := 0; h < 1000; h++ {
		for _, method := range []string{"loadavg", "vmstat", "nws_hybrid"} {
			for i := range pts {
				pts[i] = [2]float64{float64(10 * i), 0.5 + 0.4*math.Sin(float64(h*7+i))}
			}
			key := SeriesKey("host"+string(rune('a'+h%26))+string(rune('0'+h/26%10))+string(rune('0'+h/260)), method)
			local.Backfill(key, pts)
			peer.Backfill(key, pts)
		}
	}
	rp := NewRepairer(lt, local, nil)
	owned := func(string) bool { return true }
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := rp.RepairFrom(ctx, []string{"peer"}, owned); err != nil || n != 0 {
			b.Fatalf("in-sync round recovered %d points, err %v", n, err)
		}
	}
}
