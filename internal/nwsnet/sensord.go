package nwsnet

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"nwscpu/internal/resilience"
	"nwscpu/internal/sensors"
)

// SeriesKey builds the memory key for a host's availability series measured
// by one method, e.g. "thing1/cpu/nws_hybrid".
func SeriesKey(host, method string) string {
	return fmt.Sprintf("%s/cpu/%s", host, method)
}

// SensorDaemon measures one host with the three sensors and pushes every
// measurement to a memory server — the persistent NWS CPU sensor process.
//
// For simulated hosts the caller advances virtual time and calls Step; for
// live hosts Start runs a wall-clock loop.
// StoreBackend is the delivery-plane contract a SensorDaemon pushes
// through: a ReplicaGroup on either placement (fixed replicas, or ring
// owners with redirect-driven rebalancing) and the in-process LocalBackend
// satisfy it, so the daemon's store-and-forward logic is identical across
// deployments.
type StoreBackend interface {
	StoreBatch(ctx context.Context, stores []BatchStore) ([]error, error)
	Health() []ReplicaHealth
}

type SensorDaemon struct {
	hostName string
	host     sensors.Host
	client   *Client
	group    StoreBackend
	sensors  []sensors.Sensor

	// Store-and-forward: measurements that could not be delivered are
	// buffered per series (bounded) and retried on the next Step, so a
	// memory-server outage loses no data shorter than the buffer.
	backlog    map[string][][2]float64
	backlogCap int

	// Outage accounting (accessed only from the Step caller): logger may
	// be nil; drops are always counted in nws_sensor_backlog_dropped_total
	// and logged once per outage rather than once per trimmed batch.
	logger        *log.Logger
	inOutage      bool
	outageDrops   int
	outageDropLog bool

	mu     sync.Mutex
	stopCh chan struct{}
	doneCh chan struct{}
}

// backlogDefaultCap bounds the per-series store-and-forward buffer
// (an hour of 10-second measurements).
const backlogDefaultCap = 360

// NewSensorDaemon builds a daemon for the named host, pushing to the memory
// server at memAddr.
func NewSensorDaemon(hostName string, h sensors.Host, memAddr string, hybrid sensors.HybridConfig) *SensorDaemon {
	return NewSensorDaemonReplicas(hostName, h, []string{memAddr}, 0, hybrid)
}

// NewSensorDaemonReplicas builds a daemon pushing to a replicated memory
// group: every measurement fans out to all of memAddrs and is delivered
// once quorum replicas acknowledge (quorum <= 0 selects a majority). With a
// single address it behaves exactly like NewSensorDaemon.
func NewSensorDaemonReplicas(hostName string, h sensors.Host, memAddrs []string, quorum int, hybrid sensors.HybridConfig) *SensorDaemon {
	if hybrid.ProbeEvery == 0 {
		hybrid = sensors.DefaultHybridConfig()
	}
	// Short per-attempt retries: the store-and-forward backlog is the
	// durable recovery path, so the in-call policy only smooths blips
	// (a connection dying mid-exchange, a server restart).
	client := NewClientOptions(ClientOptions{
		Retry: resilience.Policy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond},
		// OpenFor < 0 keeps the breaker in probe-limiter mode: the daemon's
		// single delivery loop is never delayed by an open circuit (its next
		// tick is always admitted as the probe, so recovery happens on the
		// first tick after the replica returns), while any concurrent
		// callers sharing this client stop piling onto a sick replica.
		Breaker: &resilience.BreakerConfig{OpenFor: -1},
	})
	return &SensorDaemon{
		hostName:   hostName,
		host:       h,
		client:     client,
		group:      NewReplicaGroup(client, memAddrs, quorum),
		backlog:    make(map[string][][2]float64),
		backlogCap: backlogDefaultCap,
		sensors: []sensors.Sensor{
			sensors.NewLoadAvgSensor(h),
			sensors.NewVmstatSensor(h, 0),
			sensors.NewHybridSensor(h, hybrid),
		},
	}
}

// NewSensorDaemonCluster builds a daemon pushing into a partitioned
// cluster: measurements are routed by series key to the ring owners under
// the membership view served by the registry at nsAddr, and each delivery
// succeeds once a majority of a key's owners acknowledges. Ownership
// redirects refresh the daemon's routing table in-band, so rebalancing
// costs one extra round trip, not an outage — and anything still
// undeliverable rides the same store-and-forward backlog as the replicated
// path.
func NewSensorDaemonCluster(hostName string, h sensors.Host, nsAddr string, hybrid sensors.HybridConfig) *SensorDaemon {
	d := NewSensorDaemonReplicas(hostName, h, nil, 0, hybrid)
	d.group = NewReplicaGroupCluster(d.client, nsAddr)
	return d
}

// SetLogger directs the daemon's outage diagnostics (backlog overflow,
// recovery) to l. nil (the default) silences them; drop counts are still
// recorded in the metrics either way.
func (d *SensorDaemon) SetLogger(l *log.Logger) { d.logger = l }

// SetBacklogCap bounds the per-series store-and-forward backlog (n <= 0
// restores the default). Fault harnesses shrink it to make the backlog
// window — the outage length the writer alone can heal — small enough to
// overrun on purpose.
func (d *SensorDaemon) SetBacklogCap(n int) {
	if n <= 0 {
		n = backlogDefaultCap
	}
	d.backlogCap = n
}

// BacklogCap reports the per-series store-and-forward backlog bound.
func (d *SensorDaemon) BacklogCap() int { return d.backlogCap }

// Group returns the store backend the daemon delivers through (a
// *ReplicaGroup on the replicated path), letting harnesses and operators
// reach replication-layer knobs like SetHintCap.
func (d *SensorDaemon) Group() StoreBackend { return d.group }

// Register announces this sensor to a name server. addr is where queries
// about this daemon should go (informational; the daemon itself only pushes).
func (d *SensorDaemon) Register(nsAddr, addr string) error {
	if d.client == nil {
		return fmt.Errorf("nwsnet: sensor %s: no wire client (backend-wired daemon)", d.hostName)
	}
	return d.client.Register(nsAddr, Registration{
		Name: d.hostName + "/cpu",
		Kind: KindSensor,
		Addr: addr,
	})
}

// Step takes one measurement with every sensor and stores the results —
// every series plus its backlog from previous failed deliveries in ONE
// batched round trip per replica. Undeliverable measurements are buffered
// per series (bounded; oldest dropped first, each drop counted in
// nws_sensor_backlog_dropped_total) and the error reported — the daemon
// keeps measuring through memory-server outages and backfills when the
// server returns; server-side dedup makes the redelivered batches
// idempotent.
func (d *SensorDaemon) Step() error {
	t := d.host.Now()
	stores := make([]BatchStore, len(d.sensors))
	for i, s := range d.sensors {
		v := s.Measure()
		mSensorMeasurements.With(s.Name()).Inc()
		key := SeriesKey(d.hostName, s.Name())
		stores[i] = BatchStore{Series: key, Points: append(d.backlog[key], [2]float64{t, v})}
	}
	subErrs, err := d.group.StoreBatch(context.Background(), stores)
	var firstErr error
	for i, st := range stores {
		serr := err
		if subErrs != nil {
			serr = subErrs[i]
		}
		if serr == nil {
			mSensorDeliveries.Inc()
			delete(d.backlog, st.Series)
			continue
		}
		mSensorDeliveryFailures.Inc()
		batch := st.Points
		if dropped := len(batch) - d.backlogCap; dropped > 0 {
			batch = batch[dropped:]
			d.noteDropped(dropped)
		}
		d.backlog[st.Series] = batch
		if firstErr == nil {
			firstErr = fmt.Errorf("nwsnet: sensor %s: %w", st.Series, serr)
		}
	}
	d.noteOutcome(firstErr)
	mSensorBacklog.With(d.hostName).Set(float64(d.Backlogged()))
	return firstErr
}

// noteDropped counts backlog-cap drops and logs the first of an outage.
func (d *SensorDaemon) noteDropped(n int) {
	mSensorBacklogDropped.Add(uint64(n))
	d.outageDrops += n
	if !d.outageDropLog {
		d.outageDropLog = true
		if d.logger != nil {
			d.logger.Printf("nwsnet: sensor %s: backlog full (cap %d points/series); dropping oldest measurements until delivery recovers",
				d.hostName, d.backlogCap)
		}
	}
}

// noteOutcome tracks outage transitions: entering an outage bumps
// nws_sensor_outages_total; leaving one reports how much was lost.
func (d *SensorDaemon) noteOutcome(err error) {
	if err != nil {
		if !d.inOutage {
			d.inOutage = true
			mSensorOutages.Inc()
		}
		return
	}
	if d.inOutage {
		if d.logger != nil && d.outageDrops > 0 {
			d.logger.Printf("nwsnet: sensor %s: delivery recovered; %d measurements were dropped during the outage",
				d.hostName, d.outageDrops)
		}
		d.inOutage = false
		d.outageDrops = 0
		d.outageDropLog = false
	}
}

// Backlogged reports how many undelivered measurements are buffered.
func (d *SensorDaemon) Backlogged() int {
	n := 0
	for _, b := range d.backlog {
		n += len(b)
	}
	return n
}

// Start launches a background wall-clock measurement loop with the given
// period. Errors are delivered on the returned channel (buffered; the loop
// keeps running after errors). Stop terminates the loop.
func (d *SensorDaemon) Start(period time.Duration) <-chan error {
	errs := make(chan error, 16)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopCh != nil {
		errs <- fmt.Errorf("nwsnet: sensor daemon already started")
		close(errs)
		return errs
	}
	d.stopCh = make(chan struct{})
	d.doneCh = make(chan struct{})
	stop, done := d.stopCh, d.doneCh
	go func() {
		defer close(done)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if err := d.Step(); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}
	}()
	return errs
}

// Close releases the daemon's pooled memory connections. Call after the
// final Step or Stop. A backend-wired daemon owns no connections.
func (d *SensorDaemon) Close() error {
	if d.client == nil {
		return nil
	}
	return d.client.Close()
}

// Replicas reports the health of the daemon's memory replica group.
func (d *SensorDaemon) Replicas() []ReplicaHealth { return d.group.Health() }

// Stop terminates a Start loop and waits for it to exit. It is safe to call
// without a prior Start.
func (d *SensorDaemon) Stop() {
	d.mu.Lock()
	stop, done := d.stopCh, d.doneCh
	d.stopCh, d.doneCh = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
