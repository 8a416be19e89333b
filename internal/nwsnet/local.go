package nwsnet

import (
	"context"
	"time"

	"nwscpu/internal/sensors"
)

// LocalBackend adapts an in-process Handler — a *Memory or a *ClusterNode —
// to the StoreBackend and FetchBackend delivery contracts with no sockets,
// codecs or retry machinery in between. It is the wiring the grid-scale
// scenario harness (cmd/nwsgrid) runs the whole sensord → memory →
// forecaster stack on: thousands of simulated hosts share one process, the
// hot path is a method call, and determinism is limited only by the
// handler itself. Requests carry the same batch envelopes as the wire
// path, so the server-side semantics (idempotent frontier dedup, [from,to)
// ranges, per-sub rejections) are exercised identically.
type LocalBackend struct {
	h Handler
}

// NewLocalBackend wraps h. The handler must be safe for concurrent use
// (both *Memory and *ClusterNode are).
func NewLocalBackend(h Handler) *LocalBackend { return &LocalBackend{h: h} }

const localAddr = "local"

// StoreBatch implements StoreBackend via one OpBatch envelope.
func (l *LocalBackend) StoreBatch(_ context.Context, stores []BatchStore) ([]error, error) {
	if len(stores) == 0 {
		return nil, nil
	}
	return storeResults(localAddr, l.h.Handle(storeEnvelope(stores)), len(stores))
}

// Fetch implements FetchBackend with the wire range semantics: [from, to)
// with to == 0 meaning "through the latest point", keeping the most recent
// max points when max > 0.
func (l *LocalBackend) Fetch(_ context.Context, key string, from, to float64, max int) ([][2]float64, error) {
	resp := l.h.Handle(Request{Op: OpFetch, Series: key, From: from, To: to, Max: max})
	if err := respError(localAddr, resp); err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// FetchBatch implements FetchBackend via one OpBatch envelope.
func (l *LocalBackend) FetchBatch(_ context.Context, fetches []BatchFetch) ([]FetchResult, error) {
	if len(fetches) == 0 {
		return nil, nil
	}
	return fetchResults(localAddr, l.h.Handle(fetchEnvelope(fetches)), len(fetches))
}

// Series implements FetchBackend.
func (l *LocalBackend) Series(_ context.Context) ([]string, error) {
	resp := l.h.Handle(Request{Op: OpSeries})
	if err := respError(localAddr, resp); err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Health implements both backend contracts: an in-process handler is
// reachable by construction.
func (l *LocalBackend) Health() []ReplicaHealth {
	return []ReplicaHealth{{Addr: localAddr, Healthy: true}}
}

// NewSensorDaemonBackend builds a daemon for the named host delivering
// through an arbitrary StoreBackend — for in-process harnesses, a
// LocalBackend. The store-and-forward backlog, outage accounting and Step
// semantics are identical to the socket-backed constructors; only the
// delivery plane differs. The daemon owns no client, so Close is a no-op.
func NewSensorDaemonBackend(hostName string, h sensors.Host, backend StoreBackend, hybrid sensors.HybridConfig) *SensorDaemon {
	if hybrid.ProbeEvery == 0 {
		hybrid = sensors.DefaultHybridConfig()
	}
	return &SensorDaemon{
		hostName:   hostName,
		host:       h,
		group:      backend,
		backlog:    make(map[string][][2]float64),
		backlogCap: backlogDefaultCap,
		sensors: []sensors.Sensor{
			sensors.NewLoadAvgSensor(h),
			sensors.NewVmstatSensor(h, 0),
			sensors.NewHybridSensor(h, hybrid),
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
