// Package nwsnet implements the distributed architecture of the Network
// Weather Service that served the paper's forecasts: persistent sensors push
// measurements to a memory server, a name server tracks where everything
// runs, and a forecaster service answers prediction queries by pulling
// recent history from the memory and running the forecasting engine.
//
// The wire protocol (wire protocol v2; the normative spec is
// docs/PROTOCOL.md) is a length-prefixed binary codec over TCP with
// varint-packed point arrays and tagged request IDs, letting clients
// pipeline many requests over one multiplexed connection (see MuxConn)
// instead of running in lockstep. It is implemented entirely with the
// standard library. A connection opens with a five-byte version preamble;
// a server refuses any peer that does not send it, including the retired v1
// JSON-lines codec. In process, LocalTransport carries the same requests to
// a Handler without the codec.
//
// Every component is instrumented through internal/metrics: the protocol
// server counts connections and per-op requests, the memory server tracks
// stores/fetches/evictions and per-op latency histograms, the name server
// tracks registrations and TTL expiries, the forecaster tracks queries,
// engine latency, and per-method selections, and the sensor daemon tracks
// measurements, delivery outages, and backlog drops. cmd/nwsd exposes all
// of it over HTTP with -metrics; the full metric reference is in
// docs/OBSERVABILITY.md.
package nwsnet

import (
	"errors"
	"fmt"

	"nwscpu/internal/nwsnet/cluster"
)

// Kind labels a registered component.
type Kind string

// Component kinds known to the name server.
const (
	KindSensor     Kind = "sensor"
	KindMemory     Kind = "memory"
	KindForecaster Kind = "forecaster"
)

// Op identifies a request type.
type Op string

// Protocol operations.
const (
	OpPing     Op = "ping"
	OpRegister Op = "register" // name server: announce a component
	OpLookup   Op = "lookup"   // name server: find a component by name
	OpList     Op = "list"     // name server: enumerate components
	OpStore    Op = "store"    // memory: append points to a series
	OpFetch    Op = "fetch"    // memory: read back a series range
	OpSeries   Op = "series"   // memory: list stored series keys
	OpBatch    Op = "batch"    // memory: execute sub-requests in one round trip
	OpForecast Op = "forecast" // forecaster: predict the next measurement
	OpJoin     Op = "join"     // registry: enter the cluster (joining, then active)
	OpLease    Op = "lease"    // registry: renew a member's lease
	OpView     Op = "view"     // registry: fetch the membership view

	// Read-plane operations: server pushes ride a v2 connection's request
	// IDs, so a handler asked for them outside one answers a terminal
	// "unsupported op" error.
	OpSubscribe   Op = "subscribe"   // forecaster: watch a series for forecast pushes
	OpUnsubscribe Op = "unsubscribe" // forecaster: stop watching a series
	OpHello       Op = "hello"       // any server: negotiate connection metadata (tenant ID)

	// Repair-plane operations (docs/PROTOCOL.md §9): anti-entropy digests
	// and behind-the-frontier merges, used by replica repair and nwsctl
	// repair. Unlike OpStore, OpBackfill inserts points older than the
	// series frontier instead of deduplicating them away.
	OpDigest   Op = "digest"   // memory: per-series frontier/count/checksum digests
	OpBackfill Op = "backfill" // memory: merge points behind the frontier
)

// Registration describes one component known to the name server.
type Registration struct {
	Name string
	Kind Kind
	Addr string
	// Addrs, when non-empty, lists every replica behind this logical
	// component (by convention Addr repeats the first entry so old clients
	// keep working). Clients turn a replicated registration into a
	// ReplicaGroup; see docs/ARCHITECTURE.md, "Resilience".
	Addrs []string
}

// Endpoints returns the addresses behind the registration: the replica set
// when one was registered, else the single Addr.
func (r Registration) Endpoints() []string {
	if len(r.Addrs) > 0 {
		return r.Addrs
	}
	if r.Addr == "" {
		return nil
	}
	return []string{r.Addr}
}

// Request is the client-to-server message.
type Request struct {
	Op Op

	// Register / Lookup fields.
	Reg Registration

	// Series operations.
	Series string
	Points [][2]float64 // [t, v] pairs
	From   float64
	To     float64 // fetch: exclusive upper bound (0 = open-ended)
	Max    int     // fetch: most recent N (0 = all in range)

	// Batch envelope: the sub-requests an OpBatch executes server-side in
	// one round trip. Nesting is rejected. Responses come back in the same
	// order in Response.Batch.
	Batch []Request

	// Cluster membership fields (see docs/PROTOCOL.md, "Cluster
	// operations"). Member carries the joining/renewing node on OpJoin and
	// OpLease (lease needs only Member.ID). Epoch is the view epoch the
	// caller already holds: OpView answers "not modified" (no view) when it
	// matches the current epoch, and OpLease uses it to decide whether the
	// renewal response must carry a fresh view.
	Member *cluster.Member
	Epoch  uint64

	// Tenant is the client's tenant ID, carried by OpHello: the server
	// attributes every later request on the connection to it when per-tenant
	// quotas are configured (see ServerLimits.TenantRate).
	Tenant string
}

// SeriesDigest summarizes one stored series for anti-entropy comparison:
// the point count, the frontier (timestamp of the newest point), and an
// FNV-1a checksum over the full point content in time order. Two replicas
// whose digests for a series are equal hold bit-identical copies of it;
// any difference tells the repairer what to pull (see internal/nwsnet
// Repairer and docs/PROTOCOL.md §9).
type SeriesDigest struct {
	Series   string
	Count    uint64
	Frontier float64
	Sum      uint64
}

// ForecastResult carries a forecaster answer.
type ForecastResult struct {
	Value  float64 `json:"value"`
	Method string  `json:"method"`
	MAE    float64 `json:"mae"`
	N      int     `json:"n"` // measurements behind the forecast
}

// Response codes carried in Response.Code beside the human-readable Error.
// CodeBusy distinguishes "overloaded, back off and retry" from "bad
// request": the client retry policy treats busy responses as retryable
// (with backoff) where ordinary protocol errors are terminal, and the
// client circuit breaker counts them as failures of the endpoint.
const CodeBusy = "busy"

// CodeMoved marks a request routed to a node that does not own its series
// key under the current membership view. The response carries the server's
// view so the client refreshes its routing table and re-routes without a
// registry round trip; the redirect is terminal for the attempt against
// this endpoint (retrying the same node cannot help) but the routing layer
// retries against the proper owner.
const CodeMoved = "moved"

// MovedError is the typed form of a CodeMoved response: the contacted node
// is not an owner of the key under View (the server's current view, when it
// attached one).
type MovedError struct {
	Addr string        // the endpoint that redirected
	View *cluster.View // the server's membership view, nil if absent
	Msg  string        // the server's human-readable error text
}

// Error names the redirecting endpoint and the server's reason.
func (e *MovedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("nwsnet: %s: %s", e.Addr, e.Msg)
	}
	return fmt.Sprintf("nwsnet: %s: moved under current view", e.Addr)
}

// IsMoved extracts the MovedError from an error chain, reporting whether
// err is an ownership redirect.
func IsMoved(err error) (*MovedError, bool) {
	var me *MovedError
	if errors.As(err, &me) {
		return me, true
	}
	return nil, false
}

// movedResp builds an ownership redirect carrying the current view.
func movedResp(view *cluster.View, format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...), Code: CodeMoved, View: view}
}

// errBusySentinel is wrapped into errors built from responses carrying
// CodeBusy so IsBusy can recognize them across wrapping.
var errBusySentinel = errors.New("nwsnet: server overloaded")

// IsBusy reports whether err came from a server shedding load (a response
// with code "busy"): the request was refused to protect the server, not
// because it was invalid, so retrying after backoff is expected to work.
func IsBusy(err error) bool { return errors.Is(err, errBusySentinel) }

// busyResp builds a load-shedding response: a protocol-level error carrying
// the retryable busy code.
func busyResp(format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...), Code: CodeBusy}
}

// Response is the server-to-client message.
type Response struct {
	OK    bool
	Error string
	// Code distinguishes machine-readable error classes: CodeBusy
	// ("overloaded, retry after backoff") or CodeMoved (an ownership
	// redirect). Empty on success and on ordinary (terminal) protocol
	// errors.
	Code     string
	Entries  []Registration
	Points   [][2]float64
	Names    []string
	Forecast *ForecastResult

	// Batch holds one response per sub-request of an OpBatch envelope, in
	// request order. The envelope's own Error is empty unless the envelope
	// itself was malformed; per-sub failures live in Batch[i].Error.
	Batch []Response

	// View is the cluster membership snapshot: the answer to OpView and
	// OpJoin, attached to OpLease renewals when the caller's epoch is
	// stale, and attached to CodeMoved redirects so misrouted clients
	// refresh without polling the registry.
	View *cluster.View

	// Digests answers OpDigest: one summary per non-empty stored series,
	// sorted by series key (or just the requested series when the request
	// named one).
	Digests []SeriesDigest
}

// errResp builds an error response.
func errResp(format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}
