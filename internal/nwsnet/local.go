package nwsnet

import (
	"time"

	"nwscpu/internal/sensors"
)

// LocalBackend is the in-process delivery plane: a ReplicaGroup of one over
// a LocalTransport holding a single Handler — a *Memory or a *ClusterNode —
// with no sockets, codecs or retry machinery in between. It is the wiring
// the grid-scale scenario harness (cmd/nwsgrid) runs the whole sensord →
// memory → forecaster stack on: thousands of simulated hosts share one
// process, the hot path is a method call, and determinism is limited only
// by the handler itself. Requests carry the same batch envelopes and
// answers classify through the same code as the wire path, so the
// server-side semantics (idempotent frontier dedup, [from,to) ranges,
// per-sub rejections) are exercised identically.
type LocalBackend = ReplicaGroup

// NewLocalBackend wraps h. The handler must be safe for concurrent use
// (both *Memory and *ClusterNode are).
func NewLocalBackend(h Handler) *LocalBackend {
	t := NewLocalTransport()
	t.Register("local", h)
	return NewReplicaGroupTransport(t, []string{"local"}, 1)
}

// NewSensorDaemonBackend builds a daemon for the named host delivering
// through an arbitrary StoreBackend — for in-process harnesses, a
// LocalBackend. The store-and-forward backlog, outage accounting and Step
// semantics are identical to the socket-backed constructors; only the
// delivery plane differs. The daemon owns no client, so Close is a no-op.
func NewSensorDaemonBackend(hostName string, h sensors.Host, backend StoreBackend) *SensorDaemon {
	return &SensorDaemon{
		hostName:   hostName,
		host:       h,
		group:      backend,
		backlog:    make(map[string][][2]float64),
		backlogCap: backlogDefaultCap,
		sensors: []sensors.Sensor{
			sensors.NewLoadAvgSensor(h),
			sensors.NewVmstatSensor(h, 0),
			sensors.NewHybridSensor(h, sensors.DefaultHybridConfig()),
		},
	}
}

// NewForecasterServiceBackend returns a forecaster pulling through an
// arbitrary FetchBackend — for in-process harnesses, a LocalBackend over
// the same Memory the sensors store into. timeout bounds each fetch
// context (0 selects 5 s; a LocalBackend ignores it).
func NewForecasterServiceBackend(backend FetchBackend, timeout time.Duration) *ForecasterService {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &ForecasterService{
		group:   backend,
		timeout: timeout,
		engines: make(map[string]*engineState),
		subs:    make(map[string]map[PushSink]uint64),
		bySink:  make(map[PushSink]map[string]struct{}),
	}
}
