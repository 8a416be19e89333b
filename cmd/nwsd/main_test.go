package main

import (
	"context"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"nwscpu/internal/metrics"
	"nwscpu/internal/netsensor"
	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func TestRunValidation(t *testing.T) {
	cases := []daemonOpts{
		{role: ""},
		{role: "bogus"},
		{role: "forecaster"}, // missing memory
		{role: "sensor"},     // missing memory
		{role: "sensor", memory: "x:1", simProfile: "bogus", period: time.Second},
	}
	for i, o := range cases {
		if err := run(o, quietLogger()); err == nil {
			t.Errorf("case %d (%+v) accepted", i, o)
		}
	}
}

func TestMemoryRoleBadStateDir(t *testing.T) {
	o := daemonOpts{role: "memory", stateDir: "/proc/definitely/not/writable", listen: "127.0.0.1:0"}
	if err := run(o, quietLogger()); err == nil {
		t.Fatal("unwritable state dir accepted")
	}
}

func TestReplicaListen(t *testing.T) {
	cases := []struct {
		base string
		i    int
		want string
	}{
		{"127.0.0.1:8091", 0, "127.0.0.1:8091"},
		{"127.0.0.1:8091", 2, "127.0.0.1:8093"},
		{":8091", 1, ":8092"},
		{"127.0.0.1:0", 3, "127.0.0.1:0"}, // ephemeral stays ephemeral
	}
	for _, c := range cases {
		got, err := replicaListen(c.base, c.i)
		if err != nil || got != c.want {
			t.Errorf("replicaListen(%q, %d) = %q, %v; want %q", c.base, c.i, got, err, c.want)
		}
	}
	if _, err := replicaListen("no-port", 1); err == nil {
		t.Error("portless base accepted for a second replica")
	}
}

func TestMemoryReplicasRole(t *testing.T) {
	ctx := context.Background()
	ns := nwsnet.NewServer(nwsnet.NewNameServer(0, cluster.Config{}), nil)
	nsAddr, err := ns.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	stop := make(chan struct{})
	bound := make(chan string, 4)
	o := daemonOpts{
		role: "memory", listen: "127.0.0.1:0", replicas: 3, nameserver: nsAddr,
		stop:   stop,
		notify: func(component, addr string) { bound <- addr },
	}
	done := make(chan error, 1)
	go func() { done <- run(o, quietLogger()) }()

	addrs := make([]string, 3)
	for i := range addrs {
		select {
		case addrs[i] = <-bound:
		case <-time.After(5 * time.Second):
			t.Fatal("replica did not report a bound address")
		}
	}

	c := nwsnet.NewClient(time.Second)
	defer c.Close()
	for _, addr := range addrs {
		if err := c.PingCtx(ctx, addr); err != nil {
			t.Fatalf("replica %s: %v", addr, err)
		}
	}
	// The whole set must be resolvable as one logical endpoint. The daemon
	// registers after reporting its bound addresses, so give the
	// registration a moment to land.
	var reg nwsnet.Registration
	deadline := time.Now().Add(5 * time.Second)
	for {
		reg, err = c.LookupCtx(ctx, nsAddr, "memory")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Kind != nwsnet.KindMemory || len(reg.Endpoints()) != 3 {
		t.Fatalf("registered group = %+v", reg)
	}
	// Writes through the resolved group reach every replica.
	g := nwsnet.NewReplicaGroup(c, reg.Endpoints(), 0)
	if err := g.Store(context.Background(), "k", [][2]float64{{1, 0.5}}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		pts, err := c.FetchCtx(ctx, addr, "k", 0, 0, 0)
		if err != nil || len(pts) != 1 {
			t.Fatalf("replica %s after group store: %v, %v", addr, pts, err)
		}
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPushNetProbes(t *testing.T) {
	refl := netsensor.NewReflector()
	reflAddr, err := refl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer refl.Close()

	mem := nwsnet.NewMemory(0)
	srv := nwsnet.NewServer(mem, nil)
	memAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	lat := netsensor.NewLatencySensor(reflAddr, 4, time.Second)
	defer lat.Close()
	bw := netsensor.NewBandwidthSensor(reflAddr, 0, 2*time.Second)
	defer bw.Close()
	group := nwsnet.NewReplicaGroup(nwsnet.NewClient(time.Second), []string{memAddr}, 0)
	defer group.Close()

	for i := 0; i < 3; i++ {
		if err := pushNetProbes(group, "box", float64(i*10), lat, bw); err != nil {
			t.Fatal(err)
		}
	}
	if mem.Len("box/net/latency") != 3 || mem.Len("box/net/bandwidth") != 3 {
		t.Fatalf("stored latency=%d bandwidth=%d, want 3 each",
			mem.Len("box/net/latency"), mem.Len("box/net/bandwidth"))
	}
}

func TestPushNetProbesDeadReflector(t *testing.T) {
	mem := nwsnet.NewMemory(0)
	srv := nwsnet.NewServer(mem, nil)
	memAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lat := netsensor.NewLatencySensor("127.0.0.1:1", 4, 200*time.Millisecond)
	defer lat.Close()
	bw := netsensor.NewBandwidthSensor("127.0.0.1:1", 0, 200*time.Millisecond)
	defer bw.Close()
	group := nwsnet.NewReplicaGroup(nwsnet.NewClient(time.Second), []string{memAddr}, 0)
	defer group.Close()
	if err := pushNetProbes(group, "box", 0, lat, bw); err == nil {
		t.Fatal("dead reflector accepted")
	}
}

// counterValue reads one unlabelled counter from the process registry.
func counterValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, fam := range metrics.Default.Snapshot() {
		if fam.Name == name && len(fam.Metrics) == 1 {
			return fam.Metrics[0].Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestMemoryReplicasRepairEachOther proves the repair plane is deployed, not
// just documented, on both shapes of a fixed replica set — one process with
// -replicas 3, and three single daemons each given the -memory list: a point
// one replica never received is pulled from its siblings within a few -period
// ticks. A cluster member repairs through its agent, so the memory role
// refuses -memory beside -cluster.
func TestMemoryReplicasRepairEachOther(t *testing.T) {
	const period = 20 * time.Millisecond
	t.Run("replicas", func(t *testing.T) {
		addrs := startMemories(t, daemonOpts{role: "memory", listen: "127.0.0.1:0", replicas: 3, period: period})
		repairsHole(t, addrs)
	})
	t.Run("separate", func(t *testing.T) {
		// Reserve the ports up front: every daemon needs the whole list.
		addrs := make([]string, 3)
		for i := range addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = l.Addr().String()
			l.Close()
		}
		var opts []daemonOpts
		for _, a := range addrs {
			opts = append(opts, daemonOpts{role: "memory", listen: a, memory: strings.Join(addrs, ","), period: period})
		}
		startMemories(t, opts...)
		repairsHole(t, addrs)
	})
	t.Run("cluster", func(t *testing.T) {
		o := daemonOpts{role: "memory", listen: "127.0.0.1:0", memory: "127.0.0.1:1", clusterAddr: "127.0.0.1:2"}
		if err := run(o, quietLogger()); err == nil {
			t.Fatal("memory role accepted -memory beside -cluster")
		}
	})
}

// startMemories runs one memory daemon per opts until the test ends and
// returns every replica address they bound.
func startMemories(t *testing.T, opts ...daemonOpts) []string {
	t.Helper()
	want, running := 0, len(opts)
	for _, o := range opts {
		want += max(o.replicas, 1)
	}
	stop := make(chan struct{})
	bound := make(chan string, want)
	done := make(chan error, len(opts))
	for _, o := range opts {
		o.stop = stop
		o.notify = func(_, addr string) { bound <- addr }
		go func() { done <- run(o, quietLogger()) }()
	}
	t.Cleanup(func() {
		close(stop)
		for ; running > 0; running-- {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	})
	var addrs []string
	for len(addrs) < want {
		select {
		case a := <-bound:
			addrs = append(addrs, a)
		case err := <-done:
			running--
			t.Fatalf("memory daemon exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("replica did not report a bound address")
		}
	}
	return addrs
}

// repairsHole leaves the third of three replicas without one point the
// other two hold, and waits for a repairer to pull it in.
func repairsHole(t *testing.T, addrs []string) {
	ctx := context.Background()
	t.Helper()
	c := nwsnet.NewClient(time.Second)
	defer c.Close()
	recovered0 := counterValue(t, "nws_repair_points_recovered_total")
	for _, addr := range addrs {
		if err := c.StoreCtx(ctx, addr, "k", [][2]float64{{1, 0.1}, {2, 0.2}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range addrs[:2] {
		if err := c.StoreCtx(ctx, addr, "k", [][2]float64{{3, 0.3}}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for counterValue(t, "nws_repair_points_recovered_total") == recovered0 {
		if time.Now().After(deadline) {
			t.Fatal("no repairer recovered the missing point")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want, err := c.DigestsCtx(ctx, addrs[0], "k")
	if err != nil || len(want) != 1 || want[0].Count != 3 {
		t.Fatalf("reference digest = %+v, %v", want, err)
	}
	for _, addr := range addrs[1:] {
		got, err := c.DigestsCtx(ctx, addr, "k")
		if err != nil || len(got) != 1 || got[0] != want[0] {
			t.Fatalf("replica %s digest = %+v, %v; want %+v", addr, got, err, want[0])
		}
	}
}
