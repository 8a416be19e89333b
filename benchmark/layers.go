package main

// perLayer is what the traced run reports: one row per layer boundary the
// benchmark can see from outside the program. A workload that never enters a
// layer reports 0 for it. README.md maps each row to the end-to-end metric it
// should move, and names the workloads it should not move.
var perLayer = []metricDef{
	// set-up
	{Name: "simos.tracegen_s", Unit: "s", Better: "lower"},
	{Name: "memory.prefill_s", Unit: "s", Better: "lower"},
	{Name: "forecaster.warm_s", Unit: "s", Better: "lower"},
	// wire: mux + server + binary codec, in flight outside the handler
	{Name: "wire.request.count", Unit: "count", Better: "higher"},
	{Name: "wire.request.self_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "wire.request.p99_us", Unit: "us", Better: "lower"},
	// memory: the handler wrapper around Memory.Handle
	{Name: "memory.handle.count", Unit: "count", Better: "higher"},
	{Name: "memory.handle.store_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "memory.handle.fetch_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "memory.handle.p99_us", Unit: "us", Better: "lower"},
	{Name: "memory.direct_store_ns_per_point", Unit: "ns", Better: "lower"},
	// replica group over the lockstep client
	{Name: "replica.call.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.call.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "replica.tail.p50_us", Unit: "us", Better: "lower"},
	{Name: "replica.range.p50_us", Unit: "us", Better: "lower"},
	{Name: "replica.store.p50_us", Unit: "us", Better: "lower"},
	{Name: "replica.request.p99_us", Unit: "us", Better: "lower"},
	// forecaster service
	{Name: "forecaster.refresh.self_ns_per_series", Unit: "ns", Better: "lower"},
	{Name: "forecaster.fetch_batch.ns_per_series", Unit: "ns", Better: "lower"},
	{Name: "forecaster.poll.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "forecaster.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "forecaster.refresh.p99_us", Unit: "us", Better: "lower"},
	// bare forecast.Engine replay of the same points
	{Name: "engine.update.ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "engine.forecast.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.update.allocs_per_point", Unit: "count", Better: "lower"},
	{Name: "engine.share_of_pass", Unit: "ratio", Better: "lower"},
	// push plane
	{Name: "push.deliver.p50_us", Unit: "us", Better: "lower"},
	{Name: "push.deliver.p99_us", Unit: "us", Better: "lower"},
	{Name: "push.ns_per_push", Unit: "ns", Better: "lower"},
	{Name: "push.dropped", Unit: "count", Better: "lower"},
	// durable memory
	{Name: "persist.handle.ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "persist.log_overhead_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "persist.open.ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "persist.recovery_s", Unit: "s", Better: "lower"},
	{Name: "persist.close_s", Unit: "s", Better: "lower"},
	{Name: "persist.files", Unit: "count", Better: "lower"},
	{Name: "persist.disk_bytes_per_point", Unit: "B/point", Better: "lower"},
	{Name: "persist.handle.p99_us", Unit: "us", Better: "lower"},
	// whole process, untraced passes of the traced run
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	// validity of the rows above
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.coverage_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
}
