package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
)

func startComponent(t *testing.T, h nwsnet.Handler) string {
	t.Helper()
	srv := nwsnet.NewServer(h, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestRunValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		nil,           // no command
		{"bogus"},     // unknown command
		{"list"},      // missing -nameserver
		{"series"},    // missing -memory
		{"fetch"},     // missing -memory and key
		{"forecast"},  // missing -forecaster and key
		{"members"},   // missing -nameserver
		{"ring"},      // missing -nameserver and series key
		{"-nonsense"}, // bad flag
	}
	for i, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("case %d (%v) accepted", i, args)
		}
	}
}

func TestRunAgainstLiveComponents(t *testing.T) {
	nsAddr := startComponent(t, nwsnet.NewNameServer())
	memAddr := startComponent(t, nwsnet.NewMemory(0))
	fcAddr := startComponent(t, nwsnet.NewForecasterService(memAddr, 0))

	c := nwsnet.NewClient(0)
	if err := c.Register(nsAddr, nwsnet.Registration{
		Name: "h/cpu", Kind: nwsnet.KindSensor, Addr: "s:1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(memAddr, "h/cpu/vmstat",
		[][2]float64{{10, 0.5}, {20, 0.5}, {30, 0.5}}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-nameserver", nsAddr, "list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "h/cpu") {
		t.Fatalf("list output: %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-memory", memAddr, "series"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "h/cpu/vmstat") {
		t.Fatalf("series output: %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-memory", memAddr, "fetch", "h/cpu/vmstat", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("fetch lines = %d, want 2:\n%s", got, buf.String())
	}
	if err := run([]string{"-memory", memAddr, "fetch", "h/cpu/vmstat", "zz"}, &buf); err == nil {
		t.Fatal("bad max accepted")
	}

	buf.Reset()
	if err := run([]string{"-forecaster", fcAddr, "forecast", "h/cpu/vmstat"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "forecast 0.5") {
		t.Fatalf("forecast output: %q", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-nameserver", nsAddr, "-memory", memAddr, "ping"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "ok") != 2 {
		t.Fatalf("ping output: %q", buf.String())
	}
}

func TestHealthCommand(t *testing.T) {
	if err := run([]string{"health"}, &bytes.Buffer{}); err == nil {
		t.Fatal("health without -memory or -nameserver accepted")
	}

	a := startComponent(t, nwsnet.NewMemory(0))
	b := startComponent(t, nwsnet.NewMemory(0))

	// All replicas up: quorum holds, exit clean.
	var buf bytes.Buffer
	group := a + "," + b
	if err := run([]string{"-memory", group, "health"}, &buf); err != nil {
		t.Fatalf("health with all replicas up: %v", err)
	}
	if got := strings.Count(buf.String(), "healthy"); got != 3 { // 2 replicas + summary
		t.Fatalf("health output: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "2/2 replicas healthy") {
		t.Fatalf("health summary missing: %q", buf.String())
	}

	// One of two down: majority (2) lost, exit non-zero but still report.
	buf.Reset()
	err := run([]string{"-memory", a + ",127.0.0.1:1", "health"}, &buf)
	if err == nil {
		t.Fatal("health with quorum lost exited clean")
	}
	if !strings.Contains(buf.String(), "down") || !strings.Contains(buf.String(), "1/2 replicas healthy") {
		t.Fatalf("degraded health output: %q", buf.String())
	}

	// Resolution via the name server's registered replica set.
	nsAddr := startComponent(t, nwsnet.NewNameServer())
	c := nwsnet.NewClient(0)
	if err := c.Register(nsAddr, nwsnet.Registration{
		Name: "memory", Kind: nwsnet.KindMemory, Addr: a, Addrs: []string{a, b},
	}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-nameserver", nsAddr, "health"}, &buf); err != nil {
		t.Fatalf("health via nameserver: %v", err)
	}
	if !strings.Contains(buf.String(), "2/2 replicas healthy") {
		t.Fatalf("nameserver health output: %q", buf.String())
	}
}

func TestHealthFrontierLag(t *testing.T) {
	a := startComponent(t, nwsnet.NewMemory(0))
	b := startComponent(t, nwsnet.NewMemory(0))
	c := nwsnet.NewClient(0)
	if err := c.Store(a, "h/cpu/vmstat", [][2]float64{{10, 0.5}, {20, 0.5}, {30, 0.5}}); err != nil {
		t.Fatal(err)
	}
	// Replica b lags two rounds and is missing a second series entirely.
	if err := c.Store(b, "h/cpu/vmstat", [][2]float64{{10, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(a, "h/cpu/loadavg", [][2]float64{{10, 0.4}}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run([]string{"-memory", a + "," + b, "health"}, &buf); err != nil {
		t.Fatalf("health: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "frontier lag") {
		t.Fatalf("health output missing frontier lag section:\n%s", out)
	}
	if !strings.Contains(out, "max lag 20.0s") || !strings.Contains(out, "1 missing") {
		t.Fatalf("lagging replica not reported:\n%s", out)
	}
	if !strings.Contains(out, "max lag 0.0s  (0/2 series behind, 0 missing)") {
		t.Fatalf("up-to-date replica not reported clean:\n%s", out)
	}
}

func TestRepairCommand(t *testing.T) {
	if err := run([]string{"repair", "k"}, &bytes.Buffer{}); err == nil {
		t.Fatal("repair without -memory or -nameserver accepted")
	}
	if err := run([]string{"-memory", "x:1", "repair"}, &bytes.Buffer{}); err == nil {
		t.Fatal("repair without a series key accepted")
	}

	a := startComponent(t, nwsnet.NewMemory(0))
	b := startComponent(t, nwsnet.NewMemory(0))
	cth := startComponent(t, nwsnet.NewMemory(0))
	c := nwsnet.NewClient(0)
	full := [][2]float64{{10, 0.1}, {20, 0.2}, {30, 0.3}}
	if err := c.Store(a, "k", full); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(b, "k", full[:1]); err != nil { // laggard
		t.Fatal(err)
	}
	// Replica c is empty: a full backfill candidate.

	group := a + "," + b + "," + cth
	var buf bytes.Buffer
	if err := run([]string{"-memory", group, "repair", "k"}, &buf); err != nil {
		t.Fatalf("repair: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "best copy (3 points") {
		t.Fatalf("repair did not pick the complete replica:\n%s", out)
	}
	if !strings.Contains(out, "3/3 replicas in sync") {
		t.Fatalf("repair did not converge the group:\n%s", out)
	}
	for _, addr := range []string{a, b, cth} {
		pts, err := c.Fetch(addr, "k", 0, 0, 0)
		if err != nil || len(pts) != 3 {
			t.Fatalf("replica %s after repair: %v, %v", addr, pts, err)
		}
	}

	// A second pass is a no-op: everyone already in sync.
	buf.Reset()
	if err := run([]string{"-memory", group, "repair", "k"}, &buf); err != nil {
		t.Fatalf("idempotent repair: %v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "in sync"); got != 3 { // 2 replicas + summary
		t.Fatalf("second pass output:\n%s", buf.String())
	}

	// Unknown series everywhere: error, not a zero-replica success.
	if err := run([]string{"-memory", group, "repair", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("repair of unknown series exited clean")
	}

	// Quorum-aware exit: with a majority of the listed set unreachable, the
	// pass cannot certify quorum even though the reachable replica is fine.
	buf.Reset()
	err := run([]string{"-memory", a + ",127.0.0.1:1,127.0.0.2:1", "repair", "k"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("repair with majority unreachable: err=%v", err)
	}
}

func TestMembersAndRingCommands(t *testing.T) {
	nsAddr := startComponent(t, nwsnet.NewNameServerCluster(time.Minute,
		cluster.Config{Replication: 2, VNodes: 16}))
	c := nwsnet.NewClient(0)

	// A lone active member with replication 2: listing works, but the
	// quorum gate must report the key space at risk via a non-zero exit.
	if _, err := c.JoinCluster(nsAddr, cluster.Member{
		ID: "shard-a", Kind: string(nwsnet.KindMemory), Addr: "a:1",
		State: cluster.StateActive,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-nameserver", nsAddr, "members"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("members with 1 active < replication 2: err=%v", err)
	}
	if !strings.Contains(buf.String(), "shard-a") {
		t.Fatalf("members output missing member row: %q", buf.String())
	}

	// Second active member restores the quorum: clean exit, and the
	// listing shows the epoch header plus both leases.
	if _, err := c.JoinCluster(nsAddr, cluster.Member{
		ID: "shard-b", Kind: string(nwsnet.KindMemory), Addr: "b:1",
		State: cluster.StateActive,
	}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-nameserver", nsAddr, "members"}, &buf); err != nil {
		t.Fatalf("members with quorum restored: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"epoch 2", "replication 2", "shard-a", "shard-b",
		"2/2 active memory members"} {
		if !strings.Contains(out, want) {
			t.Fatalf("members output missing %q:\n%s", want, out)
		}
	}

	// ring resolves the owners of one series key under the current view:
	// with replication 2 over two shards, both appear, primary first.
	buf.Reset()
	if err := run([]string{"-nameserver", nsAddr, "ring", "host0/cpu/nws_hybrid"}, &buf); err != nil {
		t.Fatalf("ring: %v\n%s", err, buf.String())
	}
	out = buf.String()
	for _, want := range []string{"epoch 2", "primary", "replica", "shard-a", "shard-b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ring output missing %q:\n%s", want, out)
		}
	}

	// A registry with no cluster config returns no view at all.
	plainNS := startComponent(t, nwsnet.NewNameServer())
	if err := run([]string{"-nameserver", plainNS, "members"}, &buf); err == nil {
		t.Fatal("members against a non-cluster registry accepted")
	}
}

// startShard joins one guarded memory shard to the cluster behind nsAddr.
func startShard(t *testing.T, nsAddr, id string) (addr string) {
	t.Helper()
	node := nwsnet.NewClusterNode(id, nwsnet.NewMemory(0))
	addr = startComponent(t, node)
	agent := nwsnet.NewClusterAgent(nil, nsAddr, cluster.Member{ID: id, Kind: string(nwsnet.KindMemory), Addr: addr}, node)
	t.Cleanup(func() { agent.Close() })
	if err := agent.Join(context.Background()); err != nil {
		t.Fatal(err)
	}
	return addr
}

// clusterFixture is a 3-shard replication-2 cluster holding one series whose
// second owner misses the newest point.
func clusterFixture(t *testing.T) (nsAddr string, shards map[string]string, key string, owners []cluster.Member) {
	t.Helper()
	nsAddr = startComponent(t, nwsnet.NewNameServerCluster(time.Minute, cluster.Config{Replication: 2, VNodes: 16}))
	shards = map[string]string{}
	for _, id := range []string{"shard-a", "shard-b", "shard-c"} {
		shards[id] = startShard(t, nsAddr, id)
	}
	c := nwsnet.NewClient(0)
	t.Cleanup(func() { c.Close() })
	key = "h/cpu/nws_hybrid"
	g := nwsnet.NewReplicaGroupCluster(c, nsAddr)
	if err := g.Store(context.Background(), key, [][2]float64{{1, 0.1}, {2, 0.2}}); err != nil {
		t.Fatal(err)
	}
	v, err := c.FetchView(nsAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners = v.Owners(string(nwsnet.KindMemory), key)
	if len(owners) != 2 {
		t.Fatalf("owners of %s = %+v, want 2", key, owners)
	}
	if err := c.Store(owners[0].Addr, key, [][2]float64{{3, 0.3}}); err != nil {
		t.Fatal(err)
	}
	return nsAddr, shards, key, owners
}

func TestRepairCommandOnCluster(t *testing.T) {
	nsAddr, shards, key, owners := clusterFixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-nameserver", nsAddr, "repair", key}, &buf); err != nil {
		t.Fatalf("repair: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{owners[0].Addr, owners[1].Addr, "best copy (3 points", "repaired (+1 points)", "2/2 replicas in sync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("repair output missing %q:\n%s", want, out)
		}
	}
	// Only the series' ring owners are consulted, not the third shard.
	for id, addr := range shards {
		if id != owners[0].ID && id != owners[1].ID && strings.Contains(out, addr) {
			t.Fatalf("repair touched non-owner %s (%s):\n%s", id, addr, out)
		}
	}
}

func TestHealthCommandOnCluster(t *testing.T) {
	nsAddr, shards, _, owners := clusterFixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-nameserver", nsAddr, "health"}, &buf); err != nil {
		t.Fatalf("health: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, addr := range shards {
		if !strings.Contains(out, addr) {
			t.Fatalf("health output misses member %s:\n%s", addr, out)
		}
	}
	if !strings.Contains(out, "3/3 replicas healthy") || !strings.Contains(out, "frontier lag") {
		t.Fatalf("health output:\n%s", out)
	}
	// The owner that missed the newest point shows up as behind.
	if !strings.Contains(out, owners[1].Addr) || !strings.Contains(out, "series behind") {
		t.Fatalf("health output lacks the lag table:\n%s", out)
	}
}
