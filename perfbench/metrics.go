package main

// The metric ledger: every metric the benchmark prints, its unit, the
// layer it measures, and the end-to-end metric (and workload) it should
// move. BENCHMARK.json declares the same names; TestMetricsMatchManifest
// keeps the two in step.
//
// Every workload prints every metric. An end-to-end metric is measured on
// each workload (never 0); a per-layer metric whose layer does not run on
// a workload reads 0 there, and the Moves column says where it applies.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string // "" for an end-to-end metric
	Moves  string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "", "venue build: Wardrive, CorrectDrift, ingest over the wire, Listen, first OracleSync.Sync; median of 4 builds per run"},
	{"latency_p50_ms", "ms", "lower", "", "ar-walk: frame handed to the client until the pose returns; fleet-open, wardrive-live: open-loop query from its due time"},
	{"uplink_bytes_per_query", "B", "lower", "", "Client.BytesSent on the query connections per query (the paper's headline metric)"},
	{"loc_err_p50_m", "m", "lower", "", "median distance between the answer and the true camera position"},
	{"ingest_p50_ms", "ms", "lower", "", "Client.Ingest of one wardrive batch: 8-mapping live batches beside reads on wardrive-live, the 64-mapping setup batches of every build elsewhere"},
	{"heap_bytes_per_mapping", "B", "lower", "", "HeapAlloc after GC at the end of the ingest minus HeapAlloc before NewServer, per mapping"},
}

var perLayer = []metricDef{
	{"sift.detect_ms", "ms", "lower", "sift", "latency_p50_ms on ar-walk; 0 elsewhere (fingerprints are pre-extracted)"},
	{"sift.keypoints_per_frame", "count", "higher", "sift", "latency_p50_ms on ar-walk; 0 elsewhere"},
	{"core.select_ms", "ms", "lower", "core", "latency_p50_ms on ar-walk; on the open-loop workloads it is the untimed pre-extraction"},
	{"core.keep_ratio", "ratio", "lower", "core", "uplink_bytes_per_query on every workload"},
	{"core.filtered_share", "ratio", "higher", "core", "uplink_bytes_per_query on every workload"},
	{"server.rtt_ms", "ms", "lower", "server", "latency_* on every workload"},
	{"server.wire_ms", "ms", "lower", "server", "latency_tail_ms on fleet-open; near zero on ar-walk"},
	{"server.admit_wait_ms", "ms", "lower", "server", "latency_tail_ms and peak_qps on fleet-open; near zero on ar-walk"},
	{"server.queue_depth_p99", "count", "lower", "server", "latency_tail_ms on fleet-open"},
	{"server.shed_ratio", "ratio", "lower", "server", "latency_tail_ms and peak_qps on fleet-open"},
	{"server.locate_ms", "ms", "lower", "server", "latency_p50_ms and peak_qps on fleet-open; the server share of latency_p50_ms on ar-walk"},
	{"lsh.query_ms", "ms", "lower", "lsh", "latency_p50_ms and peak_qps on fleet-open"},
	{"cluster.ms", "ms", "lower", "cluster", "latency_p50_ms and peak_qps on fleet-open"},
	{"cluster.matched_ratio", "ratio", "higher", "cluster", "loc_err_p50_m on every workload"},
	{"pose.solve_ms", "ms", "lower", "pose", "peak_qps on fleet-open (serial in-process replay there)"},
	{"pose.generations", "count", "lower", "pose", "peak_qps on fleet-open (serial replay); ar-walk from the track histograms; 0 on wardrive-live"},
	{"pose.mismatch_ratio", "ratio", "lower", "pose", "loc_err_p50_m on fleet-open: answers under load not bit-equal to the serial replay; reported, never gated; 0 elsewhere"},
	{"track.warm_ratio", "ratio", "higher", "track", "latency_p50_ms on ar-walk; 0 elsewhere"},
	{"track.warm_generations", "count", "lower", "track", "latency_p50_ms on ar-walk; 0 elsewhere"},
	{"track.cold_generations", "count", "lower", "track", "latency_p50_ms on ar-walk; 0 elsewhere"},
	{"track.prior_rejected", "count", "lower", "track", "latency_p50_ms on ar-walk; 0 elsewhere"},
	{"store.wal_fsync_ms", "ms", "lower", "store", "ingest_* and latency_tail_ms on wardrive-live; 0 elsewhere (in-memory server)"},
	{"store.wal_append_ms", "ms", "lower", "store", "ingest_* on wardrive-live; 0 elsewhere"},
	{"store.snapshot_ms", "ms", "lower", "store", "ingest_tail_ms on wardrive-live; 0 when no compaction ran"},
	{"server.ingest_ms", "ms", "lower", "server", "ingest_* on wardrive-live; 0 elsewhere"},
	{"server.ingest_apply_ms", "ms", "lower", "server", "ingest_* and latency_tail_ms on wardrive-live; 0 elsewhere"},
	{"oraclesync.delta_share", "ratio", "higher", "oraclesync", "oracle_bytes_per_update on wardrive-live; 0 elsewhere"},
	{"oraclesync.bytes_per_sync", "B", "lower", "oraclesync", "oracle_bytes_per_update on wardrive-live; 0 elsewhere"},
	{"oraclesync.pushes", "count", "higher", "oraclesync", "oracle_staleness_p50_ms on wardrive-live; 0 elsewhere"},
	{"runtime.alloc_bytes_per_query", "B", "lower", "runtime", "peak_qps on fleet-open; whole process, harness included"},
	{"runtime.cpu_ms_per_query", "ms", "lower", "runtime", "peak_qps on fleet-open; whole process (rusage), harness included"},
	{"peak_qps", "1/s", "higher", "server", "fleet-open only: closed-loop saturation over 2 connections; 0 elsewhere"},
	{"oracle_staleness_p50_ms", "ms", "lower", "oraclesync", "wardrive-live only: ingest ack until the watcher holds an epoch covering it; 0 elsewhere"},
	{"oracle_bytes_per_update", "B", "lower", "oraclesync", "wardrive-live only: the watcher's TransferBytes per delivered update; 0 elsewhere"},
	{"latency_tail_ms", "ms", "lower", "server", "latency_p50_ms's tail (highest percentile with at least 10 samples beyond it); per-layer because hypervisor CPU-steal bursts on a shared host swing it by more than 0.25 between runs"},
	{"ingest_tail_ms", "ms", "lower", "server", "ingest_p50_ms's tail (highest percentile with at least 10 samples beyond it); per-layer because on wardrive-live it swings with the grace wait behind concurrent Locates"},
	{"loadgen.max_late_ms", "ms", "lower", "harness", "how late the open-loop generator sent; 0 on ar-walk (closed loop)"},
	{"host.steal_share", "ratio", "lower", "host", "none: CPU time the hypervisor took from this machine during the traced phase; a high share explains slow outliers on a shared host"},
	{"trace.overhead_ms", "ms", "lower", "harness", "traced minus untraced latency_p50_ms within the traced run"},
}
