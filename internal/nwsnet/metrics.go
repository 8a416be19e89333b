package nwsnet

import "nwscpu/internal/metrics"

// Direction label values of the nws_wire_* counters.
const (
	dirIn  = "in"
	dirOut = "out"
)

// The package's metric families, registered once in metrics.Default and
// shared by every component instance in the process. A daemon normally runs
// one role, so each series describes that single instance. When several
// instances share a process (tests, examples/gridlab), counters and
// histograms aggregate across them, but the set-style gauges
// (nws_memory_series, nws_nameserver_entries, nws_forecaster_engines)
// reflect only the most recently updated instance. Every name here is
// documented in docs/OBSERVABILITY.md — keep the two in sync.
var (
	// Protocol server (all roles).
	mServerConnsTotal = metrics.NewCounter(
		"nws_server_connections_total",
		"TCP connections accepted by the protocol server.")
	mServerConnsActive = metrics.NewGauge(
		"nws_server_active_connections",
		"Protocol connections currently open.")
	mServerRequests = metrics.NewCounterVec(
		"nws_server_requests_total",
		"Protocol requests handled, by operation.", "op")
	mServerShed = metrics.NewCounterVec(
		"nws_server_shed_total",
		"Load shed by the protocol server, by reason: connections (accepted past MaxConns), queue (no in-flight slot within the queue-wait budget), idle (connection idle past IdleTimeout), write (response write past WriteTimeout).", "reason")
	mServerInFlight = metrics.NewGauge(
		"nws_server_inflight_requests",
		"Requests currently executing in handlers (bounded by MaxInFlight when configured).")
	mServerQueueDepth = metrics.NewGauge(
		"nws_server_queue_depth",
		"Requests waiting for an in-flight slot within the queue-wait budget.")

	// Wire codec (server side of wire protocol v2).
	mWireConns = metrics.NewCounterVec(
		"nws_wire_connections_total",
		"Protocol connections by negotiated codec (the version-handshake outcome): always binary; peers refused at the handshake count as decode errors.", "codec")
	mWireFrames = metrics.NewCounterVec(
		"nws_wire_frames_total",
		"Binary-codec frames moved by the server, by direction (in/out).", "dir")
	mWireBytes = metrics.NewCounterVec(
		"nws_wire_bytes_total",
		"Binary-codec payload bytes moved by the server, by direction (in/out); excludes the 4-byte frame headers.", "dir")
	mWireDecodeErrors = metrics.NewCounter(
		"nws_wire_decode_errors_total",
		"Malformed binary frames and refused handshakes (anything but the v2 preamble, v1 JSON lines included); each closes its connection (binary framing cannot resynchronize).")
	mWirePipelineDepth = metrics.NewHistogram(
		"nws_wire_pipeline_depth",
		"Whole requests already received behind the one starting on a binary connection — how deep clients actually pipeline.",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256})

	// Protocol clients (Client and MuxConn outbound calls).
	mClientCalls = metrics.NewCounterVec(
		"nws_client_calls_total",
		"Outbound protocol calls, by operation.", "op")
	mClientErrors = metrics.NewCounterVec(
		"nws_client_errors_total",
		"Outbound protocol calls that failed (transport or protocol error), by operation.", "op")
	mClientLatency = metrics.NewHistogramVec(
		"nws_client_call_seconds",
		"Outbound protocol call latency in seconds, by operation.", nil, "op")
	mClientRetries = metrics.NewCounterVec(
		"nws_client_retries_total",
		"Outbound protocol call attempts retried after a transient failure, by operation.", "op")
	mBreakerState = metrics.NewGaugeVec(
		"nws_client_breaker_state",
		"Client circuit-breaker position per endpoint: 0 closed, 1 half-open, 2 open.", "addr")
	mBreakerTransitions = metrics.NewCounterVec(
		"nws_client_breaker_transitions_total",
		"Client circuit-breaker state changes, by endpoint and destination state.", "addr", "to")

	// Connection pools (one per dialed server address; addresses come from
	// local configuration, so the label set is bounded).
	mPoolIdle = metrics.NewGaugeVec(
		"nws_client_pool_idle_connections",
		"A Client's pooled MuxConns parked for reuse, by server address.", "addr")
	mPoolActive = metrics.NewGaugeVec(
		"nws_client_pool_active_connections",
		"A Client's pooled MuxConns currently checked out, by server address.", "addr")

	// Replica groups.
	mReplicaHealthy = metrics.NewGaugeVec(
		"nws_replica_healthy",
		"Replica health as observed by this process (1 healthy, 0 failed), by replica address.", "addr")
	mReplicaFailovers = metrics.NewCounter(
		"nws_replica_failovers_total",
		"Replicated reads served by a lower-preference replica after an earlier one failed.")
	mReplicaQuorumFailures = metrics.NewCounter(
		"nws_replica_quorum_failures_total",
		"Replicated writes that did not reach their quorum.")

	// Repair plane: anti-entropy rounds (see docs/ARCHITECTURE.md,
	// "Repair plane").
	mRepairRounds = metrics.NewCounter(
		"nws_repair_rounds_total",
		"Anti-entropy repair rounds completed (digest exchange plus any pulls).")
	mRepairPointsRecovered = metrics.NewCounter(
		"nws_repair_points_recovered_total",
		"Measurement points merged behind the frontier by anti-entropy repair.")

	// Memory server.
	mMemoryRequests = metrics.NewCounterVec(
		"nws_memory_requests_total",
		"Memory-server requests handled, by operation.", "op")
	mMemoryErrors = metrics.NewCounterVec(
		"nws_memory_errors_total",
		"Memory-server requests answered with an error, by operation.", "op")
	mMemoryLatency = metrics.NewHistogramVec(
		"nws_memory_request_seconds",
		"Memory-server request handling latency in seconds, by operation.", nil, "op")
	mMemoryPointsStored = metrics.NewCounter(
		"nws_memory_points_stored_total",
		"Measurement points appended to series.")
	mMemoryPointsFetched = metrics.NewCounter(
		"nws_memory_points_fetched_total",
		"Measurement points returned by fetches.")
	mMemoryPointsEvicted = metrics.NewCounter(
		"nws_memory_points_evicted_total",
		"Points dropped to enforce the per-series circular capacity.")
	mMemoryPointsDeduped = metrics.NewCounter(
		"nws_memory_points_deduped_total",
		"Stored points skipped because their timestamp was at or before the series frontier (idempotent redelivery absorption).")
	mMemoryBatchSubs = metrics.NewCounterVec(
		"nws_memory_batch_subrequests_total",
		"Sub-requests executed inside batch envelopes, by operation.", "op")
	mMemoryBatchSubErrors = metrics.NewCounterVec(
		"nws_memory_batch_suberrors_total",
		"Batch sub-requests answered with an error, by operation.", "op")
	mMemoryBatchSize = metrics.NewHistogram(
		"nws_memory_batch_size",
		"Sub-requests per batch envelope.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	mMemorySeries = metrics.NewGauge(
		"nws_memory_series",
		"Series currently stored.")
	mMemoryCompactions = metrics.NewCounter(
		"nws_memory_log_compactions_total",
		"Durable-memory checkpoints: a snapshot of every series written and the log generations before it dropped.")
	mMemoryLogTruncations = metrics.NewCounter(
		"nws_memory_log_truncations_total",
		"Torn-tail cuts: a durable memory's newest log generation cut back at startup to its last good frame (normal after a crash mid-write; investigate if it advances without one).")

	// Name server.
	mNSRegistrations = metrics.NewCounter(
		"nws_nameserver_registrations_total",
		"Registrations accepted (re-registration heartbeats included).")
	mNSLookups = metrics.NewCounterVec(
		"nws_nameserver_lookups_total",
		"Lookups served, by result (hit or miss).", "result")
	mNSExpiries = metrics.NewCounter(
		"nws_nameserver_expiries_total",
		"Registrations reaped after their TTL lapsed.")
	mNSEntries = metrics.NewGauge(
		"nws_nameserver_entries",
		"Registrations currently held (live and not yet reaped).")

	// Forecaster service.
	mFcRequests = metrics.NewCounter(
		"nws_forecaster_requests_total",
		"Forecast queries received.")
	mFcErrors = metrics.NewCounter(
		"nws_forecaster_errors_total",
		"Forecast queries answered with an error.")
	mFcLatency = metrics.NewHistogram(
		"nws_forecaster_request_seconds",
		"Forecast query latency in seconds, memory fetch included.", nil)
	mFcEngineLatency = metrics.NewHistogram(
		"nws_forecaster_engine_seconds",
		"Time spent feeding the forecasting engine and forecasting, per query.", nil)
	mFcPointsPulled = metrics.NewCounter(
		"nws_forecaster_points_pulled_total",
		"New measurement points pulled from the memory server.")
	mFcMethodSelected = metrics.NewCounterVec(
		"nws_forecaster_method_selected_total",
		"Forecasts served, by the bank method whose prediction was forwarded.", "method")
	mFcEngines = metrics.NewGauge(
		"nws_forecaster_engines",
		"Per-series forecasting engines instantiated.")

	// Forecast read plane (cache, subscriptions, per-tenant quotas).
	mFcCacheHits = metrics.NewCounter(
		"nws_forecast_cache_hits_total",
		"Forecast queries answered from the per-series result cache without a memory fetch.")
	mFcCacheMisses = metrics.NewCounter(
		"nws_forecast_cache_misses_total",
		"Forecast queries that had to fetch from memory and recompute (cold, invalidated, or refresher not running).")
	mFcCacheInvalidations = metrics.NewCounter(
		"nws_forecast_cache_invalidations_total",
		"Cached forecast results discarded because their series consumed new measurements.")
	mSubscriptionsActive = metrics.NewGauge(
		"nws_subscriptions_active",
		"Forecast subscriptions currently registered across all connections.")
	mFcPushes = metrics.NewCounter(
		"nws_forecast_pushes_total",
		"Forecast results pushed to subscribers (moved terminations included).")
	mFcPushesDropped = metrics.NewCounter(
		"nws_forecast_pushes_dropped_total",
		"Push frames dropped instead of delivered: the subscriber's connection was stalled (write in progress or write budget expired). The subscription itself stays live; the next refresh pass sends the dropped forecast again, unless a newer one supersedes it.")
	mTenantThrottled = metrics.NewCounter(
		"nws_tenant_throttled_total",
		"Requests shed with a busy response because the connection's tenant was over its token-bucket quota.")

	// Sensor daemon.
	mSensorMeasurements = metrics.NewCounterVec(
		"nws_sensor_measurements_total",
		"Measurements taken, by sensor method.", "sensor")
	mSensorDeliveries = metrics.NewCounter(
		"nws_sensor_deliveries_total",
		"Store batches delivered to the memory server.")
	mSensorDeliveryFailures = metrics.NewCounter(
		"nws_sensor_delivery_failures_total",
		"Store batches that could not be delivered and were buffered.")
	mSensorBacklog = metrics.NewGaugeVec(
		"nws_sensor_backlog_points",
		"Undelivered measurements buffered for retry, by host.", "host")
	mSensorBacklogDropped = metrics.NewCounter(
		"nws_sensor_backlog_dropped_total",
		"Buffered measurements dropped (oldest first) because the backlog cap was hit.")
	mSensorOutages = metrics.NewCounter(
		"nws_sensor_outages_total",
		"Delivery outages entered (first failed store after a healthy period).")

	// Cluster (partitioned deployment: registry, routing, handoff).
	mClusterEpoch = metrics.NewGauge(
		"nws_cluster_epoch",
		"Current membership-view epoch of the cluster registry (bumps on member activation and lease expiry).")
	mClusterMembers = metrics.NewGaugeVec(
		"nws_cluster_members",
		"Cluster members currently holding a lease, by lifecycle state (joining, active).", "state")
	mClusterLeaseExpiries = metrics.NewCounter(
		"nws_cluster_lease_expiries_total",
		"Cluster members evicted from the view after their lease lapsed.")
	mClusterRedirects = metrics.NewCounter(
		"nws_cluster_redirects_total",
		"Requests answered with an ownership redirect (code moved) because the contacted node does not own the series key under the current view.")
	mClusterViewRefreshes = metrics.NewCounterVec(
		"nws_cluster_view_refreshes_total",
		"Routing-view refreshes adopted by cluster clients, by trigger: redirect (a moved response carried a newer view) or registry (a view fetch after routing failures).", "trigger")
	mClusterHandoffPoints = metrics.NewCounter(
		"nws_cluster_handoff_points_total",
		"Measurement points streamed between shard owners by rebalancing handoff (joins and takeovers).")
	mClusterHandoffBytes = metrics.NewCounter(
		"nws_cluster_handoff_bytes_total",
		"Approximate wire bytes of rebalancing handoff traffic (16 bytes per point before varint packing).")
)

// otherOp is the bounded fallback label for ops arriving off the wire that
// opList does not name.
const otherOp Op = "other"

// opList is every op with a metric label of its own, hottest first so the
// request path's scan stops early, then otherOp. Ops arrive straight off the
// wire, so labeling them verbatim would let a remote client mint one time
// series per arbitrary op string and grow registry memory without bound.
var opList = [...]Op{OpStore, OpFetch, OpBatch, OpForecast, OpPing, OpRegister, OpLookup, OpList, OpSeries,
	OpJoin, OpLease, OpView, OpSubscribe, OpUnsubscribe, OpHello, OpDigest, OpBackfill, otherOp}

// opIndex returns op's position in opList; an op it does not name maps to
// otherOp's.
func opIndex(op Op) int {
	for i, o := range opList[:len(opList)-1] {
		if o == op {
			return i
		}
	}
	return len(opList) - 1
}

// opLabel maps a wire operation to its bounded metric label.
func opLabel(op Op) string { return string(opList[opIndex(op)]) }

// perOp resolves a metric vec's per-op label set once, so the request path
// indexes an array instead of calling the vec's With (an RWMutex
// acquisition plus a map lookup each call).
type perOp[M any] [len(opList)]*M

func newPerOp[M any](with func(...string) *M) *perOp[M] {
	var t perOp[M]
	for i, op := range opList {
		t[i] = with(string(op))
	}
	return &t
}

func (t *perOp[M]) get(op Op) *M { return t[opIndex(op)] }

// Hot-path metric handles. The serve loops, the memory handler, and the
// client exchange paths touch these families on every request; the bounded
// label sets are resolved once here, before any traffic (safe without locks).
var (
	mWireFramesIn  = mWireFrames.With(dirIn)
	mWireFramesOut = mWireFrames.With(dirOut)
	mWireBytesIn   = mWireBytes.With(dirIn)
	mWireBytesOut  = mWireBytes.With(dirOut)

	mServerRequestsByOp = newPerOp(mServerRequests.With)
	mClientCallsByOp    = newPerOp(mClientCalls.With)
	mClientErrorsByOp   = newPerOp(mClientErrors.With)
	mClientLatencyByOp  = newPerOp(mClientLatency.With)
	mMemoryRequestsByOp = newPerOp(mMemoryRequests.With)
	mMemoryErrorsByOp   = newPerOp(mMemoryErrors.With)
	mMemoryLatencyByOp  = newPerOp(mMemoryLatency.With)

	mMemoryBatchSubsByOp      = newPerOp(mMemoryBatchSubs.With)
	mMemoryBatchSubErrorsByOp = newPerOp(mMemoryBatchSubErrors.With)

	mClusterRefreshRedirect = mClusterViewRefreshes.With("redirect")
	mClusterRefreshRegistry = mClusterViewRefreshes.With("registry")
)
