package main

// MetricDef is one metric as BENCHMARK.json lists it.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd are the gated metrics, reported by untraced runs: what a user
// of the service (latency), its operator (CPU per request — capacity per
// core — and memory) and whoever deploys it (set-up time) would see.
// BENCHMARK.json carries the bounds; README.md says how they were set.
var EndToEnd = []MetricDef{
	{Name: "get_mid_ms", Unit: "ms", Better: lower},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: lower},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "setup_s", Unit: "s", Better: lower},
}

// PerLayer are the metrics of single layers, reported by traced runs and
// prefixed by the module they measure. A workload that bypasses a layer
// reports zero for it. README.md states, per metric, which end-to-end
// metric it should move and on which workload.
var PerLayer = []MetricDef{
	{"client.encrypt_ms_per_get", "ms", lower, 0},
	{"client.decrypt_ms_per_get", "ms", lower, 0},
	{"client.encrypt_ms_per_post", "ms", lower, 0},

	{"ppcrypto.oaep_decrypt_us", "us", lower, 0},
	{"ppcrypto.oaep_encrypt_us", "us", lower, 0},
	{"ppcrypto.pseudonymize_us", "us", lower, 0},
	{"ppcrypto.sym_encrypt_us", "us", lower, 0},
	{"ppcrypto.oaep_decrypt_allocs", "count", lower, 0},

	{"enclave.ua_ecalls_per_req", "count", lower, 0},
	{"enclave.ia_ecalls_per_req", "count", lower, 0},
	{"enclave.ua_batch_size_mean", "count", higher, 0},
	{"enclave.ua_ecall_ms_per_req", "ms", lower, 0},
	{"enclave.ia_ecall_ms_per_req", "ms", lower, 0},

	{"proxy.ua_serve_ms_mean", "ms", lower, 0},
	{"proxy.ua_self_ms_mean", "ms", lower, 0},
	{"proxy.ia_serve_ms_mean", "ms", lower, 0},
	{"proxy.ia_self_ms_mean", "ms", lower, 0},
	{"proxy.ua_shuffle_wait_ms_mean", "ms", lower, 0},
	{"proxy.ia_shuffle_wait_ms_mean", "ms", lower, 0},
	{"proxy.epochs", "count", higher, 0},
	{"proxy.epoch_fill_mean", "count", higher, 0},
	{"proxy.underfilled_epoch_share", "%", lower, 0},
	{"proxy.shuffle_sheds", "count", lower, 0},
	{"proxy.batch_retries", "count", lower, 0},
	{"proxy.batch_splits", "count", lower, 0},
	{"proxy.batch_degraded", "count", lower, 0},
	{"proxy.forward_retries", "count", lower, 0},

	{"message.frame_encode_us_per_epoch", "us", lower, 0},
	{"message.frame_decode_us_per_epoch", "us", lower, 0},
	{"message.frame_bytes_per_req", "B", lower, 0},
	{"message.frame_encode_allocs", "count", lower, 0},

	{"hopwire.exchanges_per_req", "count", lower, 0},
	{"hopwire.dials", "count", lower, 0},
	{"hopwire.conn_reuse_share", "%", higher, 0},
	{"hopwire.fallbacks", "count", lower, 0},
	{"hopwire.roundtrip_us", "us", lower, 0},

	{"lrs.serve_get_ms_mean", "ms", lower, 0},
	{"lrs.serve_post_ms_mean", "ms", lower, 0},
	{"lrs.engine.recommend_us", "us", lower, 0},
	{"lrs.engine.insert_us", "us", lower, 0},
	{"lrs.engine.apply_us_per_event", "us", lower, 0},
	{"lrs.engine.wal_errors", "count", lower, 0},
	{"lrs.engine.dup_events", "count", lower, 0},
	{"lrs.store.insert_us", "us", lower, 0},
	{"lrs.store.findby_us", "us", lower, 0},

	{"proc.allocs_per_req", "count", lower, 0},
	{"proc.alloc_kb_per_req", "kB", lower, 0},
	{"proc.gc_cycles", "count", lower, 0},
	{"proc.gc_pause_ms_total", "ms", lower, 0},
	{"proc.heap_mb_end", "MB", lower, 0},

	{"driver.ref_op_us", "us", lower, 0},
	{"driver.get_mid_raw_ms", "ms", lower, 0},
	{"driver.cpu_ms_per_req_raw", "ms", lower, 0},
	{"driver.get_p50_whole_ms", "ms", lower, 0},
	{"driver.get_p95_ms", "ms", lower, 0},
	{"driver.get_p99_ms", "ms", lower, 0},
	{"driver.post_p50_ms", "ms", lower, 0},
	{"driver.post_p95_ms", "ms", lower, 0},
	{"driver.lateness_p99_ms", "ms", lower, 0},
	{"driver.steal_pct", "%", lower, 0},
	{"driver.quiet_slices_kept", "count", higher, 0},
	{"driver.trace_overhead_pct", "%", lower, 0},
	{"driver.budget_call_ms", "ms", lower, 0},
	{"driver.budget_client_ms", "ms", lower, 0},
	{"driver.budget_edge_ms", "ms", lower, 0},
	{"driver.budget_lrs_ms", "ms", lower, 0},
	{"driver.budget_unattributed_pct", "%", lower, 0},
	{"driver.sat_goodput_rps", "1/s", higher, 0},
}
