// Command nwsd runs one component of the distributed NWS:
//
//	nwsd -role nameserver -listen :8090
//	nwsd -role memory     -listen :8091 [-statedir /var/lib/nws] [-replicas 3]
//	nwsd -role forecaster -listen :8092 -memory localhost:8091
//	nwsd -role reflector  -listen :8093
//	nwsd -role sensor     -host mybox -memory localhost:8091 \
//	     -nameserver localhost:8090 -period 10s [-sim <profile>] \
//	     [-reflector otherbox:8093]
//
// The memory role can run a replica group: -replicas N starts N memory
// servers on consecutive ports (the -listen port and the N-1 after it) and,
// when -nameserver is given, registers the whole set under one logical name
// so clients can resolve every endpoint at once. Forecaster and sensor roles
// accept a comma-separated -memory list and treat it as a replica group:
// writes fan out and must reach a majority, reads fail over in health order
// — see the Resilience section of docs/ARCHITECTURE.md:
//
//	nwsd -role memory -listen :8091 -replicas 3 -nameserver localhost:8090
//	nwsd -role sensor -host mybox -memory localhost:8091,localhost:8092,localhost:8093
//
// Every role accepts -metrics addr to expose the daemon's observability
// surface over HTTP: Prometheus text metrics on /metrics, a JSON snapshot
// on /metrics.json, expvar on /debug/vars, and net/http/pprof profiling on
// /debug/pprof/ — see docs/OBSERVABILITY.md for the metric reference and a
// worked profiling example:
//
//	nwsd -role memory -listen :8091 -metrics :9100
//
// Server roles accept overload-protection flags — -max-conns, -max-inflight,
// -queue-wait, -idle-timeout, -write-timeout — that bound what the daemon
// takes on before shedding excess load with a retryable busy error instead
// of collapsing; see the "Overload behavior" section of docs/ARCHITECTURE.md:
//
//	nwsd -role memory -listen :8091 -max-conns 512 -max-inflight 64
//
// Server roles also take -tenant-rate / -tenant-burst to layer per-tenant
// token-bucket quotas on those limits (clients name their tenant with the
// hello op; an over-quota tenant is answered with the same retryable busy).
// The forecaster role additionally accepts -push-refresh, the cadence at
// which it re-reads watched series and pushes changed forecasts to
// subscribers — see "Subscriptions and server push" in docs/PROTOCOL.md:
//
//	nwsd -role forecaster -listen :8093 -memory localhost:8091 \
//	     -push-refresh 5s -tenant-rate 100 -tenant-burst 200
//
// A partitioned cluster shards the series key space across many memory
// servers (see "The partitioned cluster" in docs/ARCHITECTURE.md). The
// nameserver role is the cluster registry; -replication and -vnodes set the
// ring geometry it publishes. Memory servers join with -cluster <registry>
// (naming themselves with -node; the bound address is the default), take
// epoch-numbered leases, guard their key ranges with ownership redirects,
// and pull reassigned history in via rebalancing handoff. Sensor and
// forecaster roles given -cluster route by key through the membership view
// instead of a static -memory list:
//
//	nwsd -role nameserver -listen :8090 -replication 2 -vnodes 64
//	nwsd -role memory     -listen :8091 -cluster localhost:8090 -node shard-a
//	nwsd -role memory     -listen :8092 -cluster localhost:8090 -node shard-b
//	nwsd -role sensor     -host mybox -cluster localhost:8090 -nameserver localhost:8090
//	nwsd -role forecaster -listen :8093 -cluster localhost:8090
//
// The sensor role measures either the live Linux machine (default) or a
// simulated host running one of the paper's workload profiles (-sim thing1,
// thing2, conundrum, beowulf, gremlin, kongo); in simulation mode virtual
// time is advanced at the measurement cadence so the daemon produces the
// same series the experiments use, but live over the network.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nwscpu/internal/metrics"
	"nwscpu/internal/netsensor"
	"nwscpu/internal/nwsnet"
	"nwscpu/internal/nwsnet/cluster"
	"nwscpu/internal/prochost"
	"nwscpu/internal/sensors"
	"nwscpu/internal/simos"
	"nwscpu/internal/workload"
)

func main() {
	role := flag.String("role", "", "nameserver | memory | forecaster | reflector | sensor")
	listen := flag.String("listen", "127.0.0.1:0", "listen address for server roles")
	memory := flag.String("memory", "", "memory server address (forecaster, sensor)")
	nameserver := flag.String("nameserver", "", "name server address to register with (optional)")
	hostName := flag.String("host", "localhost", "host name for the sensor's series keys")
	period := flag.Duration("period", 10*time.Second, "sensor measurement period")
	simProfile := flag.String("sim", "", "simulate a paper host profile instead of reading /proc")
	capacity := flag.Int("capacity", 0, "memory: max points per series (0 = default)")
	replicas := flag.Int("replicas", 1, "memory: run this many replica servers on consecutive ports")
	stateDir := flag.String("statedir", "", "memory: directory for the durable memory's write-ahead log and snapshots (empty = in-memory only)")
	reflector := flag.String("reflector", "", "sensor: also probe network latency/bandwidth against this reflector")
	ttl := flag.Duration("ttl", 0, "nameserver: registration expiry (0 = never; sensors re-register each period)")
	clusterAddr := flag.String("cluster", "", "partitioned cluster: registry (nameserver) address; memory/forecaster roles join as shard members, client roles route by key")
	nodeID := flag.String("node", "", "cluster member ID for shard roles (default: the bound listen address)")
	replication := flag.Int("replication", 0, "nameserver: owners per series key in cluster views (0 = default 2)")
	vnodes := flag.Int("vnodes", 0, "nameserver: virtual nodes per member on the cluster ring (0 = default 64)")
	metricsAddr := flag.String("metrics", "", "HTTP address for /metrics, /metrics.json, /debug/vars, /debug/pprof (empty = disabled)")
	maxConns := flag.Int("max-conns", 0, "server roles: max concurrent connections; excess shed with a retryable busy error (0 = unlimited)")
	maxInFlight := flag.Int("max-inflight", 0, "server roles: max requests executing at once; excess queued up to -queue-wait then shed (0 = unlimited)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "server roles: how long a request may wait for an in-flight slot before being shed (with -max-inflight)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "server roles: disconnect connections idle this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "server roles: disconnect clients that stall reading a response this long (0 = never)")
	tenantRate := flag.Float64("tenant-rate", 0, "server roles: per-tenant sustained requests/sec (tenants identify with a hello); over-quota requests shed with a retryable busy error (0 = no quotas)")
	tenantBurst := flag.Int("tenant-burst", 0, "server roles: per-tenant burst capacity above -tenant-rate (0 = max(1, rate))")
	pushRefresh := flag.Duration("push-refresh", 5*time.Second, "forecaster: poll memory and push changed forecasts to subscribers this often (0 = serve subscriptions but never push)")
	flag.Parse()

	logger := log.New(os.Stderr, "nwsd: ", log.LstdFlags)
	opts := daemonOpts{
		role: *role, listen: *listen, memory: *memory, nameserver: *nameserver,
		hostName: *hostName, period: *period, simProfile: *simProfile,
		capacity: *capacity, stateDir: *stateDir, ttl: *ttl, reflector: *reflector,
		metricsAddr: *metricsAddr, replicas: *replicas,
		clusterAddr: *clusterAddr, nodeID: *nodeID,
		replication: *replication, vnodes: *vnodes,
		pushRefresh: *pushRefresh,
		limits: nwsnet.ServerLimits{
			MaxConns:     *maxConns,
			MaxInFlight:  *maxInFlight,
			QueueWait:    *queueWait,
			IdleTimeout:  *idleTimeout,
			WriteTimeout: *writeTimeout,
			TenantRate:   *tenantRate,
			TenantBurst:  *tenantBurst,
		},
	}
	if err := run(opts, logger); err != nil {
		logger.Fatal(err)
	}
}

// daemonOpts carries the parsed command-line configuration.
type daemonOpts struct {
	role, listen, memory, nameserver string
	hostName, simProfile, stateDir   string
	reflector                        string
	metricsAddr                      string
	period                           time.Duration
	ttl                              time.Duration
	capacity                         int
	replicas                         int
	// clusterAddr, when set, runs the partitioned-cluster deployment: server
	// shards join the registry there, client roles route by series key.
	clusterAddr string
	nodeID      string
	replication int
	vnodes      int
	// pushRefresh is the forecaster's subscription refresher interval: how
	// often it polls memory for new points and pushes changed forecasts to
	// subscribers. 0 disables pushing (subscriptions still acknowledge).
	pushRefresh time.Duration
	// limits is the server-role overload protection; the zero value (what
	// tests constructing daemonOpts directly get) imposes no limits.
	limits nwsnet.ServerLimits

	// Test hooks: stop (when non-nil) replaces signal delivery as the
	// shutdown trigger, and notify (when non-nil) reports each bound
	// listen address by component name.
	stop   <-chan struct{}
	notify func(component, addr string)
}

// note reports a bound address to the test hook, if any.
func (o daemonOpts) note(component, addr string) {
	if o.notify != nil {
		o.notify(component, addr)
	}
}

func run(o daemonOpts, logger *log.Logger) error {
	if o.metricsAddr != "" {
		ds, err := metrics.ServeDebug(o.metricsAddr, metrics.Default)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ds.Close()
		logger.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)", ds.Addr())
		o.note("metrics", ds.Addr())
	}
	switch o.role {
	case "nameserver":
		return serve(o, nwsnet.NewNameServerCluster(o.ttl, cluster.Config{
			Replication: o.replication, VNodes: o.vnodes,
		}), logger)
	case "memory":
		return runMemory(o, logger)
	case "forecaster":
		if o.clusterAddr != "" {
			return runClusterForecaster(o, logger)
		}
		if o.memory == "" {
			return fmt.Errorf("forecaster needs -memory")
		}
		fs := nwsnet.NewForecasterServiceReplicas(memoryAddrs(o), 0)
		// Catch up on existing history in one batched round trip before
		// serving, so the first query per series is not the expensive one.
		// Best effort: an empty or unreachable memory just starts cold.
		warmCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if n, err := fs.Warm(warmCtx, nil); err != nil {
			logger.Printf("forecaster warm-up skipped: %v", err)
		} else if n > 0 {
			logger.Printf("forecaster warmed with %d points", n)
		}
		cancel()
		if o.pushRefresh > 0 {
			fs.StartRefresher(o.pushRefresh)
			defer fs.StopRefresher()
		}
		return serve(o, fs, logger)
	case "reflector":
		r := netsensor.NewReflector()
		addr, err := r.Listen(o.listen)
		if err != nil {
			return err
		}
		logger.Printf("reflector on %s", addr)
		o.note("reflector", addr)
		waitForStop(o)
		return r.Close()
	case "sensor":
		if o.memory == "" && o.clusterAddr == "" {
			return fmt.Errorf("sensor needs -memory (or -cluster)")
		}
		return runSensor(o, logger)
	default:
		return fmt.Errorf("unknown -role %q", o.role)
	}
}

// memoryAddrs splits the -memory flag into a replica address list.
func memoryAddrs(o daemonOpts) []string {
	var addrs []string
	for _, a := range strings.Split(o.memory, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// replicaListen derives the listen address for replica i from the base
// -listen flag: an explicit port yields consecutive ports (:8091, :8092,
// ...); port 0 lets every replica bind an ephemeral port.
func replicaListen(base string, i int) (string, error) {
	if i == 0 {
		return base, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("-listen %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("-listen %q: non-numeric port with -replicas: %w", base, err)
	}
	if port == 0 {
		return base, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i)), nil
}

// runMemory serves one or more memory replicas. With -replicas N > 1 each
// replica gets its own store (and, when durable, its own subdirectory of
// -statedir) and the whole set is registered with the name server under the
// single logical name "memory" so clients resolve every endpoint at once.
func runMemory(o daemonOpts, logger *log.Logger) error {
	n := o.replicas
	if n < 1 {
		n = 1
	}
	addrs := make([]string, 0, n)
	var srvs []*nwsnet.Server
	var stores []io.Closer
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
		for _, c := range stores {
			c.Close()
		}
	}()
	var mems []*nwsnet.Memory
	var nodes []*nwsnet.ClusterNode
	var agents []*nwsnet.ClusterAgent
	defer func() {
		for _, a := range agents {
			a.Stop()
			a.Close()
		}
	}()
	for i := 0; i < n; i++ {
		var h nwsnet.Handler
		var mem *nwsnet.Memory
		if o.stateDir != "" {
			dir := o.stateDir
			if n > 1 {
				dir = filepath.Join(o.stateDir, fmt.Sprintf("replica%d", i))
			}
			pm, err := nwsnet.NewPersistentMemory(o.capacity, dir)
			if err != nil {
				return err
			}
			stores = append(stores, pm)
			logger.Printf("durable memory in %s", dir)
			h, mem = pm, pm.Memory
		} else {
			m := nwsnet.NewMemory(o.capacity)
			h, mem = m, m
		}
		mems = append(mems, mem)
		if o.clusterAddr != "" {
			// The member ID is fixed after the bind below (the bound address
			// is the default identity); the guard is inert until the agent
			// joins, so serving before that is safe.
			node := nwsnet.NewClusterNodeHandler("", h, mem)
			nodes = append(nodes, node)
			h = node
		}
		listen, err := replicaListen(o.listen, i)
		if err != nil {
			return err
		}
		srv := nwsnet.NewServerLimits(h, logger, o.limits)
		addr, err := srv.Listen(listen)
		if err != nil {
			return err
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, addr)
		logger.Printf("memory replica %d/%d listening on %s", i+1, n, addr)
	}
	for i, node := range nodes {
		id := addrs[i]
		if o.nodeID != "" {
			id = o.nodeID
			if n > 1 {
				id = fmt.Sprintf("%s-%d", o.nodeID, i)
			}
		}
		node.SetID(id)
		agent := nwsnet.NewClusterAgent(nil, o.clusterAddr, cluster.Member{
			ID: id, Kind: string(nwsnet.KindMemory), Addr: addrs[i],
		}, node)
		agent.SetLogger(logger)
		interval := o.period / 3
		if interval <= 0 {
			interval = time.Second
		}
		if _, err := agent.Start(context.Background(), interval); err != nil {
			return fmt.Errorf("joining cluster at %s: %w", o.clusterAddr, err)
		}
		agents = append(agents, agent)
		logger.Printf("joined cluster %s as member %s (epoch %d)", o.clusterAddr, id, agent.Epoch())
	}
	period := o.period
	if period <= 0 {
		period = 10 * time.Second
	}
	if len(nodes) == 0 && n > 1 {
		// The anti-entropy half of the repair plane: one repairer beside each
		// in-process replica, healing it against its siblings every -period.
		// (Cluster members get theirs from the agent, which knows their peers.)
		rc := nwsnet.NewClient(0)
		defer rc.Close()
		for i, mem := range mems {
			peers := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
			rp := nwsnet.NewRepairer(rc, mem, peers)
			rp.Start(period)
			defer rp.Stop()
		}
		logger.Printf("repairing %d replicas against each other every %s", n, period)
	}
	o.note("memory", addrs[0])
	for i, addr := range addrs[1:] {
		o.note(fmt.Sprintf("memory%d", i+1), addr)
	}
	if o.nameserver != "" {
		c := nwsnet.NewClient(0)
		defer c.Close()
		reg := nwsnet.Registration{
			Name: "memory", Kind: nwsnet.KindMemory, Addr: addrs[0], Addrs: addrs,
		}
		if err := c.Register(o.nameserver, reg); err != nil {
			return fmt.Errorf("registering with name server: %w", err)
		}
		logger.Printf("registered %d-replica memory group with %s", n, o.nameserver)
		// Keep the registration alive against a TTL name server by
		// re-registering every -period, like the sensor heartbeat.
		heartbeatDone := make(chan struct{})
		defer close(heartbeatDone)
		go func() {
			ticker := time.NewTicker(period)
			defer ticker.Stop()
			for {
				select {
				case <-heartbeatDone:
					return
				case <-ticker.C:
					if err := c.Register(o.nameserver, reg); err != nil {
						logger.Printf("heartbeat failed: %v", err)
					}
				}
			}
		}()
	}
	waitForStop(o)
	var first error
	for _, s := range srvs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	srvs = nil
	return first
}

// runClusterForecaster serves a forecaster shard of the partitioned
// cluster: it pulls history through the ring-routed cluster client and
// holds a forecaster-kind membership lease, so cluster clients route each
// series' forecast queries to the shard owning it.
func runClusterForecaster(o daemonOpts, logger *log.Logger) error {
	fs := nwsnet.NewForecasterServiceCluster(o.clusterAddr, 0)
	warmCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	if n, err := fs.Warm(warmCtx, nil); err != nil {
		logger.Printf("forecaster warm-up skipped: %v", err)
	} else if n > 0 {
		logger.Printf("forecaster warmed with %d points", n)
	}
	cancel()
	srv := nwsnet.NewServerLimits(fs, logger, o.limits)
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	id := o.nodeID
	if id == "" {
		id = addr
	}
	fs.SetClusterSelf(id)
	agent := nwsnet.NewClusterAgent(nil, o.clusterAddr, cluster.Member{
		ID: id, Kind: string(nwsnet.KindForecaster), Addr: addr,
	}, nil)
	agent.SetLogger(logger)
	// Terminate subscriptions for series this shard no longer owns on every
	// adopted view, redirecting subscribers with the authoritative view.
	agent.OnView(fs.AdoptView)
	if o.pushRefresh > 0 {
		fs.StartRefresher(o.pushRefresh)
		defer fs.StopRefresher()
	}
	interval := o.period / 3
	if interval <= 0 {
		interval = time.Second
	}
	if _, err := agent.Start(context.Background(), interval); err != nil {
		srv.Close()
		return fmt.Errorf("joining cluster at %s: %w", o.clusterAddr, err)
	}
	defer func() {
		agent.Stop()
		agent.Close()
	}()
	logger.Printf("forecaster listening on %s, member %s of cluster %s (epoch %d)",
		addr, id, o.clusterAddr, agent.Epoch())
	o.note(o.role, addr)
	waitForStop(o)
	return srv.Close()
}

func serve(o daemonOpts, h nwsnet.Handler, logger *log.Logger) error {
	srv := nwsnet.NewServerLimits(h, logger, o.limits)
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", addr)
	o.note(o.role, addr)
	waitForStop(o)
	return srv.Close()
}

func runSensor(o daemonOpts, logger *log.Logger) error {
	memory, nameserver, hostName := o.memory, o.nameserver, o.hostName
	period, simProfile := o.period, o.simProfile

	var host sensors.Host
	var sim *simos.Host
	if simProfile != "" {
		var profile *workload.Profile
		const simHorizon = 30 * 86400 // a month of simulated load
		for _, p := range workload.Profiles(simHorizon) {
			if p.Name == simProfile {
				pp := p
				profile = &pp
				break
			}
		}
		if profile == nil {
			return fmt.Errorf("unknown -sim profile %q", simProfile)
		}
		sim = simos.New(simos.DefaultConfig())
		workload.Submit(sim, profile.Generate(simHorizon))
		host = sensors.SimHost{H: sim}
		logger.Printf("simulating profile %s", simProfile)
	} else {
		ph, err := prochost.New()
		if err != nil {
			return fmt.Errorf("live host unavailable (%v); use -sim <profile>", err)
		}
		host = ph
	}

	var daemon *nwsnet.SensorDaemon
	if o.clusterAddr != "" {
		daemon = nwsnet.NewSensorDaemonCluster(hostName, host, o.clusterAddr, sensors.HybridConfig{})
		if memory == "" {
			memory = "cluster " + o.clusterAddr
		}
	} else {
		daemon = nwsnet.NewSensorDaemonReplicas(hostName, host, memoryAddrs(o), 0, sensors.HybridConfig{})
	}
	daemon.SetLogger(logger)
	defer daemon.Close()

	// Optional network probes against a reflector; their series are delivered
	// through the daemon's own group, like the CPU series.
	var lat *netsensor.LatencySensor
	var bw *netsensor.BandwidthSensor
	if o.reflector != "" {
		lat = netsensor.NewLatencySensor(o.reflector, 4, 0)
		defer lat.Close()
		bw = netsensor.NewBandwidthSensor(o.reflector, 0, 0)
		defer bw.Close()
		logger.Printf("probing network against %s", o.reflector)
	}

	if nameserver != "" {
		if err := daemon.Register(nameserver, memory); err != nil {
			return fmt.Errorf("registering with name server: %w", err)
		}
		logger.Printf("registered %s/cpu with %s", hostName, nameserver)
	}

	logger.Printf("sensing %s every %v, pushing to %s", hostName, period, memory)
	o.note("sensor", hostName)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-o.stop:
			return nil
		case <-ticker.C:
			if sim != nil {
				sim.RunUntil(sim.Now() + period.Seconds())
			}
			if err := daemon.Step(); err != nil {
				logger.Printf("measurement push failed: %v", err)
			}
			if lat != nil {
				if err := pushNetProbes(daemon.Group(), hostName, host.Now(), lat, bw); err != nil {
					logger.Printf("network probe failed: %v", err)
				}
			}
			// Re-registration doubles as the name-server heartbeat.
			if nameserver != "" {
				if err := daemon.Register(nameserver, memory); err != nil {
					logger.Printf("heartbeat failed: %v", err)
				}
			}
		}
	}
}

// pushNetProbes takes one latency and one bandwidth sample and stores them.
func pushNetProbes(group nwsnet.StoreBackend, hostName string, now float64,
	lat *netsensor.LatencySensor, bw *netsensor.BandwidthSensor) error {

	store := func(series string, v float64) error {
		subErrs, err := group.StoreBatch(context.Background(), []nwsnet.BatchStore{
			{Series: hostName + series, Points: [][2]float64{{now, v}}},
		})
		return errors.Join(append(subErrs, err)...)
	}
	rtt, err := lat.Measure()
	if err != nil {
		return err
	}
	if err := store("/net/latency", rtt); err != nil {
		return err
	}
	throughput, err := bw.Measure()
	if err != nil {
		return err
	}
	return store("/net/bandwidth", throughput)
}

// waitForStop blocks until shutdown is requested: the test stop channel
// when one is set, else an interrupt/terminate signal.
func waitForStop(o daemonOpts) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)
	select {
	case <-ch:
	case <-o.stop: // nil when unset: blocks forever, signals still win
	}
}
