package nwsnet

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwscpu/internal/resilience"
	"nwscpu/internal/resilience/chaos"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
)

// chaosFront puts a fault-injection proxy in front of a fresh memory server
// and returns the memory, the proxy, and the proxy's address.
func chaosFront(t *testing.T, sched chaos.Schedule) (*Memory, *chaos.Proxy, string) {
	t.Helper()
	m := NewMemory(0)
	srv := NewServer(m, nil)
	target, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	p := chaos.NewProxy(target, sched)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return m, p, addr
}

// TestChaosPrimaryReplicaKilledMidRun is the headline resilience scenario:
// a sensor daemon streams into a 3-replica memory group whose primary sits
// behind a fault proxy. The primary is killed mid-run; the write quorum and
// read failover must carry the stream with zero measurement loss, and the
// retry and health metrics must report the event.
func TestChaosPrimaryReplicaKilledMidRun(t *testing.T) {
	retries0 := mClientRetries.With(string(OpBatch)).Value()
	fo0 := mReplicaFailovers.Value()

	_, proxy, primaryAddr := chaosFront(t, nil)
	mems, _, addrs := startReplicaSet(t, 2)
	group := []string{primaryAddr, addrs[0], addrs[1]}

	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemon("chaoshost", sensors.SimHost{H: h}, group)
	defer d.Close()

	step := func() {
		t.Helper()
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err != nil {
			t.Fatalf("step with quorum available: %v", err)
		}
	}

	const before, during, after = 4, 4, 2
	for i := 0; i < before; i++ {
		step()
	}

	// Kill the primary mid-run: writes must keep meeting quorum on the two
	// survivors without buffering anything.
	proxy.SetDown(true)
	for i := 0; i < during; i++ {
		step()
	}
	if n := d.Backlogged(); n != 0 {
		t.Fatalf("backlog grew to %d during a quorum-preserving outage", n)
	}
	if got := mReplicaHealthy.With(primaryAddr).Value(); got != 0 {
		t.Fatalf("nws_replica_healthy{%s} = %g during outage, want 0", primaryAddr, got)
	}
	if got := mClientRetries.With(string(OpBatch)).Value() - retries0; got == 0 {
		t.Fatal("nws_client_retries_total{batch} did not report the outage")
	}

	// A reader whose preferred replica is the dead primary must fail over
	// within one retry budget.
	reader := NewReplicaGroup(fastClient(), group, 0)
	defer reader.Close()
	key := SeriesKey("chaoshost", "vmstat")
	pts, err := reader.Fetch(context.Background(), key, 0, 0, 0)
	if err != nil {
		t.Fatalf("read during primary outage: %v", err)
	}
	if len(pts) != before+during {
		t.Fatalf("failover read returned %d points, want %d", len(pts), before+during)
	}
	if got := mReplicaFailovers.Value() - fo0; got == 0 {
		t.Fatal("nws_replica_failovers_total did not report the failover")
	}

	// Revive the primary and finish the run: the stream never blinked.
	proxy.SetDown(false)
	for i := 0; i < after; i++ {
		step()
	}
	for _, method := range []string{"load_average", "vmstat", "nws_hybrid"} {
		for i := 0; i < 2; i++ {
			if n := mems[i].Len(SeriesKey("chaoshost", method)); n != before+during+after {
				t.Fatalf("survivor %d holds %d %s points, want %d (measurements lost)",
					i, n, method, before+during+after)
			}
		}
	}
	if h := d.Replicas(); !h[0].Healthy {
		// The primary was marked unhealthy during the outage; once it
		// answers writes again the group restores it.
		t.Fatalf("revived primary still unhealthy: %+v", h)
	}
}

// TestChaosFullOutageBacklogDrainsLossless covers the other half of the
// resilience story: when the whole group is unreachable (here a group of
// one), the sensor's store-and-forward backlog buffers every measurement and
// backfills on recovery — nothing is lost across the outage.
func TestChaosFullOutageBacklogDrainsLossless(t *testing.T) {
	m, proxy, addr := chaosFront(t, nil)

	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 3600})
	d := NewSensorDaemon("outagehost", sensors.SimHost{H: h}, []string{addr})
	defer d.Close()

	const before, during = 3, 4
	for i := 0; i < before; i++ {
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}

	proxy.SetDown(true)
	for i := 0; i < during; i++ {
		h.RunUntil(h.Now() + 10)
		if err := d.Step(); err == nil {
			t.Fatal("step succeeded with the only replica down")
		}
	}
	if n := d.Backlogged(); n != during*3 {
		t.Fatalf("backlog = %d measurements, want %d", n, during*3)
	}
	if d.Replicas()[0].Healthy {
		t.Fatal("downed replica still marked healthy")
	}

	// Recovery: the next step delivers its own measurement plus the whole
	// backlog in one batch per series.
	proxy.SetDown(false)
	h.RunUntil(h.Now() + 10)
	if err := d.Step(); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	if n := d.Backlogged(); n != 0 {
		t.Fatalf("backlog not drained: %d left", n)
	}
	for _, method := range []string{"load_average", "vmstat", "nws_hybrid"} {
		key := SeriesKey("outagehost", method)
		want := before + during + 1
		if n := m.Len(key); n != want {
			t.Fatalf("%s: %d points after recovery, want %d (measurements lost)", method, n, want)
		}
	}
	if got := mReplicaHealthy.With(addr).Value(); got != 1 {
		t.Fatalf("nws_replica_healthy{%s} = %g after recovery, want 1", addr, got)
	}
}

// chaosRunOutcomes drives a fixed sequence of stores through a seeded fault
// schedule and records each call's success. The retry backoff has no
// randomness, so the whole failure/recovery path is a pure function of the
// seed.
func chaosRunOutcomes(t *testing.T, seed int64) []bool {
	t.Helper()
	sched := chaos.NewSeeded(seed, 0, map[chaos.Fault]float64{
		chaos.Pass:   0.5,
		chaos.Refuse: 0.3,
		chaos.Drop:   0.2,
	})
	_, _, addr := chaosFront(t, sched)
	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	defer c.Close()

	// Faults are drawn per connection, so the schedule only stays aligned
	// across runs if every attempt dials exactly one fresh connection: a
	// failed attempt's connection is discarded, and Close drops the one a
	// successful call parked.
	outcomes := make([]bool, 12)
	for i := range outcomes {
		err := c.StoreCtx(context.Background(), addr, "s", [][2]float64{{float64(i), 0.5}})
		outcomes[i] = err == nil
		c.Close()
	}
	return outcomes
}

// TestChaosSeededScheduleIsDeterministic replays the same seeded fault
// schedule twice and requires identical call-by-call outcomes: the retry and
// failover paths must be reproducible for debugging, as the harness promises.
func TestChaosSeededScheduleIsDeterministic(t *testing.T) {
	a := chaosRunOutcomes(t, 42)
	b := chaosRunOutcomes(t, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at call %d: %v vs %v", i, a, b)
		}
	}
	// Sanity: the schedule actually injected both outcomes.
	var ok, fail bool
	for _, v := range a {
		if v {
			ok = true
		} else {
			fail = true
		}
	}
	if !ok || !fail {
		t.Fatalf("seeded schedule produced a degenerate run: %v", a)
	}
}

// TestChaosReplicaTimeoutMidBatchIdempotentRetry is the end-to-end
// idempotency scenario behind the memory server's store dedup: a replica
// applies a batched store but the client never sees the ack (the proxy
// truncates the response mid-exchange), so the retry redelivers the whole
// envelope. The group call must succeed, and every replica must end up with
// exactly one copy of each point — no duplicated tails, no wedged
// "out-of-order append".
func TestChaosReplicaTimeoutMidBatchIdempotentRetry(t *testing.T) {
	deduped0 := mMemoryPointsDeduped.Value()

	// Replica 0's first connection is truncated AFTER the request reaches
	// the server: applied, but unacknowledged. Later connections pass.
	chaosMem, _, chaosAddr := chaosFront(t, chaos.NewScript(chaos.Action{Fault: chaos.Truncate}))
	mems, _, addrs := startReplicaSet(t, 1)
	group := []string{chaosAddr, addrs[0]}

	c := NewClientOptions(ClientOptions{
		Timeout: time.Second,
		Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond},
	})
	defer c.Close()
	g := NewReplicaGroup(c, group, 2) // both replicas must ack

	stores := []BatchStore{
		{Series: "chaos/a", Points: [][2]float64{{1, 0.1}, {2, 0.2}}},
		{Series: "chaos/b", Points: [][2]float64{{1, 0.5}}},
		{Series: "chaos/c", Points: [][2]float64{{1, 0.7}, {2, 0.8}, {3, 0.9}}},
	}
	subErrs, err := g.StoreBatch(context.Background(), stores)
	if err != nil {
		t.Fatalf("batch store through truncating replica: %v (subs %v)", err, subErrs)
	}
	for i, e := range subErrs {
		if e != nil {
			t.Fatalf("sub %d: %v", i, e)
		}
	}

	// Exactly one copy of each point on every replica.
	for name, m := range map[string]*Memory{"chaos-fronted": chaosMem, "clean": mems[0]} {
		for _, st := range stores {
			if n := m.Len(st.Series); n != len(st.Points) {
				t.Fatalf("%s replica holds %d points of %s, want exactly %d",
					name, n, st.Series, len(st.Points))
			}
		}
	}
	// The redelivered envelope's points were absorbed by the dedup.
	if got := mMemoryPointsDeduped.Value() - deduped0; got != 6 {
		t.Fatalf("nws_memory_points_deduped_total grew by %d, want 6 (full redelivered batch)", got)
	}
}

// TestChaosOverloadFloodShedsKeepsSensorQuorum is the overload-protection
// headline: one replica of a quorum-2 pair runs with tight ServerLimits and
// is hit with a connection flood plus stalled readers (the chaos stall
// fault) while a sensor daemon keeps storing through it and greedy fetchers
// pile on. The server must shed the excess with retryable busy errors (never
// silently), the fetch client's breaker must open against the drowning
// replica, and once the flood stops the sensor backlog must drain to zero
// measurement loss on BOTH replicas while the breaker recovers through
// half-open back to closed.
func TestChaosOverloadFloodShedsKeepsSensorQuorum(t *testing.T) {
	ctx := context.Background()
	const (
		maxConns    = 10
		maxInFlight = 1
		queueWait   = 10 * time.Millisecond
	)
	m0 := NewMemory(0)
	// Handler time above the queue-wait budget: with one in-flight slot, any
	// two concurrent requests push the loser past QueueWait into a shed.
	slow := handlerFunc(func(req Request) Response {
		time.Sleep(3 * queueWait)
		return m0.Handle(req)
	})
	srv0 := NewServerLimits(slow, nil, ServerLimits{
		MaxConns:     maxConns,
		MaxInFlight:  maxInFlight,
		QueueWait:    queueWait,
		IdleTimeout:  250 * time.Millisecond,
		WriteTimeout: 250 * time.Millisecond,
	})
	addr0, err := srv0.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	m1 := NewMemory(0)
	srv1 := NewServer(m1, nil)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	// Quorum 2 of 2: every measurement must eventually land on both
	// replicas, including the one being flooded.
	h := simos.New(simos.DefaultConfig())
	h.Spawn(simos.ProcSpec{Demand: math.Inf(1), WallLimit: 7200})
	d := NewSensorDaemon("floodhost", sensors.SimHost{H: h}, []string{addr0, addr1})
	defer d.Close()

	steps := 0
	step := func() error {
		h.RunUntil(h.Now() + 10)
		err := d.Step()
		steps++
		return err
	}

	// Pre-flood: the healthy path must work.
	for i := 0; i < 3; i++ {
		if err := step(); err != nil {
			t.Fatalf("pre-flood step: %v", err)
		}
	}

	shedConns0 := mServerShed.With(shedConns).Value()
	shedQueue0 := mServerShed.With(shedQueue).Value()
	openT0 := mBreakerTransitions.With(addr0, "open").Value()
	closedT0 := mBreakerTransitions.With(addr0, "closed").Value()

	// Greedy fetchers warmed before the flood so their pooled connections
	// hold seats inside the connection cap and exercise the in-flight queue.
	fetchClient := NewClientOptions(ClientOptions{
		Timeout: 500 * time.Millisecond,
		Retry:   resilience.Policy{MaxAttempts: 1},
	})
	defer fetchClient.Close()
	key := SeriesKey("floodhost", "vmstat")
	if _, err := fetchClient.FetchCtx(ctx, addr0, key, 0, 0, 0); err != nil {
		t.Fatalf("pre-flood fetch: %v", err)
	}

	stopFlood := make(chan struct{})
	var flood sync.WaitGroup
	var busySeen int64
	// Connection flood: holders that dial, park, and redial when cut.
	for i := 0; i < 24; i++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				c, err := net.Dial("tcp", addr0)
				if err == nil {
					c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					io.Copy(io.Discard, c) // park until the server sheds or idles us out
					c.Close()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	// Fetch pressure through the pooled client: overflows the in-flight
	// queue and must be answered with retryable busy errors.
	for i := 0; i < 8; i++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stopFlood:
					return
				default:
				}
				if _, err := fetchClient.FetchCtx(ctx, addr0, key, 0, 0, 0); err != nil {
					if IsBusy(err) {
						atomic.AddInt64(&busySeen, 1)
						if resilience.IsTerminal(err) {
							t.Error("busy shed classified terminal (not retryable)")
							return
						}
					}
				}
			}
		}()
	}
	// Stalled readers: requests forwarded, responses never drained.
	stallSched := chaos.NewScript(
		chaos.Action{Fault: chaos.Stall},
		chaos.Action{Fault: chaos.Stall},
		chaos.Action{Fault: chaos.Stall},
	)
	stallProxy := chaos.NewProxy(addr0, stallSched)
	stallAddr, err := stallProxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stallProxy.Close()
	for i := 0; i < 3; i++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			c := NewClientOptions(ClientOptions{Timeout: 300 * time.Millisecond, Retry: resilience.Policy{MaxAttempts: 1}})
			defer c.Close()
			c.FetchCtx(ctx, stallAddr, key, 0, 0, 0) // times out: the proxy never reads the reply
		}()
	}

	// A separate client with the daemons' breaker watches the flooded
	// replica: the sheds and timeouts must trip it open, yet its sequential
	// fetches are never denied — each one after the trip is the probe.
	brkClient := NewClientOptions(ClientOptions{
		Timeout: 300 * time.Millisecond,
		Retry:   resilience.Policy{MaxAttempts: 1},
		Breaker: true,
	})
	defer brkClient.Close()
	brkFetch := func() error {
		_, err := brkClient.FetchCtx(ctx, addr0, key, 0, 0, 0)
		if errors.Is(err, resilience.ErrBreakerOpen) {
			t.Errorf("sequential fetch denied by the breaker: %v", err)
		}
		return err
	}

	// Under the flood: keep the sensor storing (failures are buffered by
	// store-and-forward and are acceptable here) until the breaker opens.
	waitFor(t, 15*time.Second, "breaker opening under the flood", func() bool {
		step() // errors tolerated: the backlog buffers them
		brkFetch()
		return brkClient.BreakerState(addr0) == resilience.BreakerOpen
	})

	close(stopFlood)
	flood.Wait()
	stallProxy.Close()

	if got := mServerShed.With(shedConns).Value() - shedConns0; got == 0 {
		t.Error("flood produced no connection sheds")
	}
	if got := mServerShed.With(shedQueue).Value() - shedQueue0; got == 0 {
		t.Error("fetch pressure produced no queue sheds")
	}
	if atomic.LoadInt64(&busySeen) == 0 {
		t.Error("no fetcher ever observed a retryable busy error")
	}
	if got := mBreakerTransitions.With(addr0, "open").Value() - openT0; got == 0 {
		t.Error("nws_client_breaker_transitions_total{open} did not grow")
	}

	// Drain: with the flood gone, the backlog must flush and every
	// measurement must land on both replicas — zero loss, exactly once.
	waitFor(t, 10*time.Second, "backlog drain after the flood", func() bool {
		return step() == nil && d.Backlogged() == 0
	})
	for _, method := range []string{"load_average", "vmstat", "nws_hybrid"} {
		k := SeriesKey("floodhost", method)
		if n := m0.Len(k); n != steps {
			t.Errorf("flooded replica holds %d %s points, want %d (measurement loss)", n, method, steps)
		}
		if n := m1.Len(k); n != steps {
			t.Errorf("healthy replica holds %d %s points, want %d (measurement loss)", n, method, steps)
		}
	}

	// Breaker recovery: the next fetch is admitted as the probe, and the
	// drained replica answers it, which closes the circuit.
	if err := brkFetch(); err != nil {
		t.Fatalf("probe after the flood cleared: %v", err)
	}
	if got := brkClient.BreakerState(addr0); got != resilience.BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", got)
	}
	if got := mBreakerTransitions.With(addr0, "closed").Value() - closedT0; got == 0 {
		t.Error("nws_client_breaker_transitions_total{closed} did not grow")
	}
}
