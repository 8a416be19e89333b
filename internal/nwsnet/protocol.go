// Package nwsnet implements the distributed architecture of the Network
// Weather Service that served the paper's forecasts: persistent sensors push
// measurements to a memory server, a name server tracks where everything
// runs, and a forecaster service answers prediction queries by pulling
// recent history from the memory and running the forecasting engine.
//
// The wire protocol has two codecs behind one negotiated listener (the
// normative spec is docs/PROTOCOL.md): v1 is one JSON object per line over
// TCP — deliberately simple and debuggable with netcat — and v2 is a
// length-prefixed binary codec with varint-packed point arrays and tagged
// request IDs, letting clients pipeline many requests over one multiplexed
// connection (see MuxConn) instead of running in lockstep. Both are
// implemented entirely with the standard library; servers sniff the v2
// preamble on connect and answer either, while the clients in this package
// (Client, MuxConn) speak v2 only.
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
	"bufio"
	"encoding/json"
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

	// Read-plane operations (wire protocol v2 only; a v1 JSON client asking
	// for them gets a terminal "unsupported op" error from the handler).
	OpSubscribe   Op = "subscribe"   // forecaster: watch a series for forecast pushes
	OpUnsubscribe Op = "unsubscribe" // forecaster: stop watching a series
	OpHello       Op = "hello"       // any server: negotiate connection metadata (tenant ID)

	// Repair-plane operations (docs/PROTOCOL.md §9): anti-entropy digests
	// and behind-the-frontier merges, used by replica repair and hinted
	// handoff. Unlike OpStore, OpBackfill inserts points older than the
	// series frontier instead of deduplicating them away.
	OpDigest   Op = "digest"   // memory: per-series frontier/count/checksum digests
	OpBackfill Op = "backfill" // memory: merge points behind the frontier
)

// opLabel maps a wire operation to a bounded metric label: known ops map to
// their own name, anything else to "other". Ops arrive straight off the wire,
// so labeling them verbatim would let a remote client mint one time series
// per arbitrary op string and grow registry memory without bound.
func opLabel(op Op) string {
	switch op {
	case OpPing, OpRegister, OpLookup, OpList, OpStore, OpFetch, OpSeries, OpBatch, OpForecast,
		OpJoin, OpLease, OpView, OpSubscribe, OpUnsubscribe, OpHello, OpDigest, OpBackfill:
		return string(op)
	}
	return "other"
}

// Registration describes one component known to the name server.
type Registration struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Addr string `json:"addr"`
	// Addrs, when non-empty, lists every replica behind this logical
	// component (by convention Addr repeats the first entry so old clients
	// keep working). Clients turn a replicated registration into a
	// ReplicaGroup; see docs/ARCHITECTURE.md, "Resilience".
	Addrs []string `json:"addrs,omitempty"`
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
	Op Op `json:"op"`

	// Register / Lookup fields.
	Reg Registration `json:"reg,omitempty"`

	// Series operations.
	Series string       `json:"series,omitempty"`
	Points [][2]float64 `json:"points,omitempty"` // [t, v] pairs
	From   float64      `json:"from,omitempty"`
	To     float64      `json:"to,omitempty"`  // fetch: exclusive upper bound (0 = open-ended)
	Max    int          `json:"max,omitempty"` // fetch: most recent N (0 = all in range)

	// Batch envelope: the sub-requests an OpBatch executes server-side in
	// one round trip. Nesting is rejected. Responses come back in the same
	// order in Response.Batch.
	Batch []Request `json:"batch,omitempty"`

	// Cluster membership fields (see docs/PROTOCOL.md, "Cluster
	// operations"). Member carries the joining/renewing node on OpJoin and
	// OpLease (lease needs only Member.ID). Epoch is the view epoch the
	// caller already holds: OpView answers "not modified" (no view) when it
	// matches the current epoch, and OpLease uses it to decide whether the
	// renewal response must carry a fresh view.
	Member *cluster.Member `json:"member,omitempty"`
	Epoch  uint64          `json:"epoch,omitempty"`

	// Tenant is the client's tenant ID, carried by OpHello: the server
	// attributes every later request on the connection to it when per-tenant
	// quotas are configured (see ServerLimits.TenantRate).
	Tenant string `json:"tenant,omitempty"`
}

// SeriesDigest summarizes one stored series for anti-entropy comparison:
// the point count, the frontier (timestamp of the newest point), and an
// FNV-1a checksum over the full point content in time order. Two replicas
// whose digests for a series are equal hold bit-identical copies of it;
// any difference tells the repairer what to pull (see internal/nwsnet
// Repairer and docs/PROTOCOL.md §9).
type SeriesDigest struct {
	Series   string  `json:"series"`
	Count    uint64  `json:"count"`
	Frontier float64 `json:"frontier"`
	Sum      uint64  `json:"sum"`
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
	Addr   string        // the endpoint that redirected
	Series string        // the misrouted series key, when the server echoed it
	View   *cluster.View // the server's membership view, nil if absent
	Msg    string        // the server's human-readable error text
}

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
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code distinguishes machine-readable error classes; today the only
	// code is CodeBusy ("overloaded, retry after backoff"). Empty on
	// success and on ordinary (terminal) protocol errors.
	Code     string          `json:"code,omitempty"`
	Entries  []Registration  `json:"entries,omitempty"`
	Points   [][2]float64    `json:"points,omitempty"`
	Names    []string        `json:"names,omitempty"`
	Forecast *ForecastResult `json:"forecast,omitempty"`

	// Batch holds one response per sub-request of an OpBatch envelope, in
	// request order. The envelope's own Error is empty unless the envelope
	// itself was malformed; per-sub failures live in Batch[i].Error.
	Batch []Response `json:"batch,omitempty"`

	// View is the cluster membership snapshot: the answer to OpView and
	// OpJoin, attached to OpLease renewals when the caller's epoch is
	// stale, and attached to CodeMoved redirects so misrouted clients
	// refresh without polling the registry.
	View *cluster.View `json:"view,omitempty"`

	// Digests answers OpDigest: one summary per non-empty stored series,
	// sorted by series key (or just the requested series when the request
	// named one).
	Digests []SeriesDigest `json:"digests,omitempty"`
}

// errResp builds an error response.
func errResp(format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}

// maxLineBytes bounds a single protocol line; a fetch of 100k points fits
// comfortably.
const maxLineBytes = 8 << 20

// writeMsg writes one JSON value and a newline.
func writeMsg(w *bufio.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}
	return w.Flush()
}

// readMsg reads one newline-terminated JSON value of at most maxLineBytes.
func readMsg(r *bufio.Reader, v any) error {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return err
		}
		if len(line) > maxLineBytes {
			return fmt.Errorf("nwsnet: protocol line exceeds %d bytes", maxLineBytes)
		}
	}
	return json.Unmarshal(line, v)
}
