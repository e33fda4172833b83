package main

// metricDef describes one metric of BENCHMARK.json. Bound is set on
// end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them. On the RPC workloads an op
// is a successful call; on analysis_pipeline an op is one fixed-size round
// (generate, merge, render) and the latencies are those of a round.
//
// Each bound is the larger of the bound the defining issue proposed and three
// times the widest spread any workload showed for the metric in the two
// ten-run acceptance sets, rounded up to a step of 0.05 and capped at the
// contract's 0.25 (README.md has the sets). Three times, because the contract
// wants a spread below a third of its bound. The box this was built on has
// neighbours: bulk_download alone puts calls/s (9%), p50 (14%) and the tail
// (20% on unary_small) at the cap. CPU per op (5.1%) and the heap (2.9%),
// which a neighbour can hardly touch, are tighter.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, from the --trace 1 run; the
// prefix of a name is its layer. They are informational: they have no bound.
// A workload that bypasses a layer reports 0 for it, which is the evidence
// that it does. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "rawsock.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "rawsock.uds_rtt_us", Unit: "us", Better: "lower"},

	{Name: "wire.frame_write_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.flush_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_read_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bufpool_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.pool_gets_per_call", Unit: "count", Better: "lower"},
	{Name: "wire.pool_outstanding", Unit: "count", Better: "lower"},

	{Name: "secure.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "secure.open_ns", Unit: "ns", Better: "lower"},
	{Name: "secure.seal_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "secure.open_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "secure.seals_per_call", Unit: "count", Better: "lower"},
	{Name: "secure.opens_per_call", Unit: "count", Better: "lower"},
	{Name: "secure.bytes_encrypted_per_call", Unit: "B", Better: "lower"},

	{Name: "compressor.compress_ns", Unit: "ns", Better: "lower"},
	{Name: "compressor.decompress_ns", Unit: "ns", Better: "lower"},
	{Name: "compressor.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compressor.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "compressor.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "compressor.ratio", Unit: "ratio", Better: "lower"},
	{Name: "compressor.calls_per_call", Unit: "count", Better: "lower"},
	{Name: "compressor.skip_share", Unit: "share", Better: "higher"},

	{Name: "stubby.client_send_queue_us", Unit: "us", Better: "lower"},
	{Name: "stubby.req_proc_stack_us", Unit: "us", Better: "lower"},
	{Name: "stubby.req_wire_us", Unit: "us", Better: "lower"},
	{Name: "stubby.server_recv_queue_us", Unit: "us", Better: "lower"},
	{Name: "stubby.server_app_us", Unit: "us", Better: "lower"},
	{Name: "stubby.server_send_queue_us", Unit: "us", Better: "lower"},
	{Name: "stubby.resp_proc_stack_us", Unit: "us", Better: "lower"},
	{Name: "stubby.resp_wire_us", Unit: "us", Better: "lower"},
	{Name: "stubby.client_recv_queue_us", Unit: "us", Better: "lower"},
	{Name: "stubby.queue_p99_us", Unit: "us", Better: "lower"},
	{Name: "stubby.tax_share", Unit: "share", Better: "lower"},
	{Name: "stubby.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "stubby.bytes_alloc_per_call", Unit: "B", Better: "lower"},
	{Name: "stubby.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "stubby.replay_compute_us", Unit: "us", Better: "lower"},
	{Name: "stubby.replay_total_us", Unit: "us", Better: "lower"},
	{Name: "stubby.residual_us", Unit: "us", Better: "lower"},
	{Name: "stubby.residual_share", Unit: "share", Better: "lower"},

	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.spans_seen", Unit: "count", Better: "higher"},
	{Name: "telemetry.span_overflow", Unit: "count", Better: "lower"},
	{Name: "telemetry.codec_jobs", Unit: "count", Better: "lower"},
	{Name: "trace.collect_ns", Unit: "ns", Better: "lower"},

	{Name: "fleet.catalog_build_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.topology_build_ms", Unit: "ms", Better: "lower"},

	{Name: "workload.generate_spans_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.spans", Unit: "count", Better: "higher"},
	{Name: "core.observe_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.render_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_bytes", Unit: "B", Better: "lower"},
	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.spanio_write_ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "trace.spanio_scan_ns_per_span", Unit: "ns", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.total_alloc_mb", Unit: "MB", Better: "lower"},

	{Name: "loadgen.overhead_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "loadgen.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.goodput_mb_s", Unit: "MB/s", Better: "higher"},
}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	"unary_small":       "128 B echo: per-message cost (kernel round trip, framing, queue hops, small seal/open); bypasses compressor, bulk lane, codec pool, telemetry",
	"bulk_download":     "16 B request, 256 KiB reply on the bulk lane: per-byte cost (server seal, client open, chunking, writev, credit window, buffer pool)",
	"fleet_mix":         "seeded 200-method schedule, uploads up to 64 KiB, flate and a telemetry plane: the same layers the other way round; only user of compressor and telemetry",
	"analysis_pipeline": "offline half (fleet, sim, workload, stats, core, trace): fixed-size generate, merge, render rounds; opens no socket, so data-plane changes must leave it flat",
}
