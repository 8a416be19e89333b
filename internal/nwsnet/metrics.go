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
		"Durable-memory logs cut back at startup to the last good frame (a write torn by a crash), plus legacy text logs imported up to a damaged tail.")

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
		"Push frames dropped instead of delivered: the subscriber's connection was stalled (write in progress or write budget expired). The subscription itself stays live; the next refresh tick supersedes the dropped forecast.")
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
// opLabel does not recognize.
const otherOp Op = "other"

// opCounters resolves a CounterVec's bounded per-op label set once, so the
// per-request path is a switch on the op instead of the vec's With (an
// RWMutex acquisition plus a map lookup each call).
type opCounters struct {
	ping, register, lookup, list, store, fetch, series, batch, forecast *metrics.Counter
	join, lease, view, subscribe, unsubscribe, hello, other             *metrics.Counter
	digest, backfill                                                    *metrics.Counter
}

func perOpCounters(v *metrics.CounterVec) *opCounters {
	return &opCounters{
		ping:        v.With(string(OpPing)),
		register:    v.With(string(OpRegister)),
		lookup:      v.With(string(OpLookup)),
		list:        v.With(string(OpList)),
		store:       v.With(string(OpStore)),
		fetch:       v.With(string(OpFetch)),
		series:      v.With(string(OpSeries)),
		batch:       v.With(string(OpBatch)),
		forecast:    v.With(string(OpForecast)),
		join:        v.With(string(OpJoin)),
		lease:       v.With(string(OpLease)),
		view:        v.With(string(OpView)),
		subscribe:   v.With(string(OpSubscribe)),
		unsubscribe: v.With(string(OpUnsubscribe)),
		hello:       v.With(string(OpHello)),
		digest:      v.With(string(OpDigest)),
		backfill:    v.With(string(OpBackfill)),
		other:       v.With(string(otherOp)),
	}
}

// get collapses unknown ops onto the other entry exactly as opLabel would.
func (c *opCounters) get(op Op) *metrics.Counter {
	switch op {
	case OpStore:
		return c.store
	case OpFetch:
		return c.fetch
	case OpBatch:
		return c.batch
	case OpForecast:
		return c.forecast
	case OpPing:
		return c.ping
	case OpRegister:
		return c.register
	case OpLookup:
		return c.lookup
	case OpList:
		return c.list
	case OpSeries:
		return c.series
	case OpJoin:
		return c.join
	case OpLease:
		return c.lease
	case OpView:
		return c.view
	case OpSubscribe:
		return c.subscribe
	case OpUnsubscribe:
		return c.unsubscribe
	case OpHello:
		return c.hello
	case OpDigest:
		return c.digest
	case OpBackfill:
		return c.backfill
	}
	return c.other
}

// opHistograms is the same resolution for a HistogramVec.
type opHistograms struct {
	ping, register, lookup, list, store, fetch, series, batch, forecast *metrics.Histogram
	join, lease, view, subscribe, unsubscribe, hello, other             *metrics.Histogram
	digest, backfill                                                    *metrics.Histogram
}

func perOpHistograms(v *metrics.HistogramVec) *opHistograms {
	return &opHistograms{
		ping:        v.With(string(OpPing)),
		register:    v.With(string(OpRegister)),
		lookup:      v.With(string(OpLookup)),
		list:        v.With(string(OpList)),
		store:       v.With(string(OpStore)),
		fetch:       v.With(string(OpFetch)),
		series:      v.With(string(OpSeries)),
		batch:       v.With(string(OpBatch)),
		forecast:    v.With(string(OpForecast)),
		join:        v.With(string(OpJoin)),
		lease:       v.With(string(OpLease)),
		view:        v.With(string(OpView)),
		subscribe:   v.With(string(OpSubscribe)),
		unsubscribe: v.With(string(OpUnsubscribe)),
		hello:       v.With(string(OpHello)),
		digest:      v.With(string(OpDigest)),
		backfill:    v.With(string(OpBackfill)),
		other:       v.With(string(otherOp)),
	}
}

func (h *opHistograms) get(op Op) *metrics.Histogram {
	switch op {
	case OpStore:
		return h.store
	case OpFetch:
		return h.fetch
	case OpBatch:
		return h.batch
	case OpForecast:
		return h.forecast
	case OpPing:
		return h.ping
	case OpRegister:
		return h.register
	case OpLookup:
		return h.lookup
	case OpList:
		return h.list
	case OpSeries:
		return h.series
	case OpJoin:
		return h.join
	case OpLease:
		return h.lease
	case OpView:
		return h.view
	case OpSubscribe:
		return h.subscribe
	case OpUnsubscribe:
		return h.unsubscribe
	case OpHello:
		return h.hello
	case OpDigest:
		return h.digest
	case OpBackfill:
		return h.backfill
	}
	return h.other
}

// Hot-path metric handles. The serve loops, the memory handler, and the
// client exchange paths touch these families on every request; the bounded
// label sets are resolved once here, before any traffic (safe without locks).
var (
	mWireFramesIn  = mWireFrames.With(dirIn)
	mWireFramesOut = mWireFrames.With(dirOut)
	mWireBytesIn   = mWireBytes.With(dirIn)
	mWireBytesOut  = mWireBytes.With(dirOut)

	mServerRequestsByOp = perOpCounters(mServerRequests)
	mClientCallsByOp    = perOpCounters(mClientCalls)
	mClientErrorsByOp   = perOpCounters(mClientErrors)
	mClientLatencyByOp  = perOpHistograms(mClientLatency)
	mMemoryRequestsByOp = perOpCounters(mMemoryRequests)
	mMemoryErrorsByOp   = perOpCounters(mMemoryErrors)
	mMemoryLatencyByOp  = perOpHistograms(mMemoryLatency)

	mMemoryBatchSubsByOp      = perOpCounters(mMemoryBatchSubs)
	mMemoryBatchSubErrorsByOp = perOpCounters(mMemoryBatchSubErrors)

	mClusterRefreshRedirect = mClusterViewRefreshes.With("redirect")
	mClusterRefreshRegistry = mClusterViewRefreshes.With("registry")
)
