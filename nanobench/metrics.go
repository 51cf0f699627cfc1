package main

// The metric catalogue: every name the benchmark prints, with its unit, the
// workloads it is measured on and — for per-layer metrics — the end-to-end
// metrics it should move. BENCHMARK.json lists the same names; the
// self-tests keep the two in step.

const (
	wlFloodLocal = "flood-local"
	wlFloodProxy = "flood-proxy"
	wlStudyCold  = "study-cold"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{wlFloodLocal, wlFloodProxy, wlStudyCold}

var (
	floods  = []string{wlFloodLocal, wlFloodProxy}
	proxy   = []string{wlFloodProxy}
	study   = []string{wlStudyCold}
	everyWL = []string{wlFloodLocal, wlFloodProxy, wlStudyCold}
)

// endToEnd describes one metric a user of the system sees. Every workload
// prints every end-to-end metric; README.md says what each means on each
// workload, and BENCHMARK.json holds its bound.
type endToEnd struct{ Name, Unit, Better string }

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"study_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer describes one traced-run metric. On a workload outside
// Workloads the metric reads 0.
type perLayer struct {
	Name, Unit, Better string
	Moves              []string
	Workloads          []string
}

var perLayerMetrics = []perLayer{
	{"adsapi.serve_us.p50", "us", "lower", []string{"latency_p50_ms"}, floods},
	{"adsapi.serve_us.p99", "us", "lower", []string{"latency_p90_ms"}, floods},
	{"adsapi.self_us.p50", "us", "lower", []string{"throughput_rps"}, floods},
	{"http.wait_us.p50", "us", "lower", []string{"latency_p50_ms"}, floods},
	{"http.wait_us.p99", "us", "lower", []string{"latency_p90_ms"}, floods},
	{"serving.backend_us.p50", "us", "lower", []string{"latency_p50_ms"}, floods},
	{"serving.backend_us.p99", "us", "lower", []string{"latency_p90_ms"}, floods},
	{"serving.backend_calls_per_req", "count", "lower", []string{"latency_p90_ms"}, floods},
	{"serving.shard_rpcs_per_req", "count", "lower", []string{"throughput_rps"}, proxy},
	{"serving.shard_rpc_us.p50", "us", "lower", []string{"throughput_rps"}, proxy},
	{"serving.shard_rpc_us.p99", "us", "lower", []string{"throughput_rps"}, proxy},
	{"serving.shard_self_us.p50", "us", "lower", []string{"throughput_rps"}, proxy},
	{"serving.shard_wire_us.p50", "us", "lower", []string{"throughput_rps"}, proxy},
	{"serving.fanout_skew_us.p99", "us", "lower", []string{"latency_p90_ms"}, proxy},
	{"serving.rpc_failed", "count", "lower", []string{"throughput_rps"}, proxy},
	{"serving.hedged", "count", "lower", []string{"throughput_rps"}, proxy},
	{"serving.failovers", "count", "lower", []string{"throughput_rps"}, proxy},
	{"serving.retry_budget_exhausted", "count", "lower", []string{"throughput_rps"}, proxy},
	{"audience.prefix.hit_ratio", "ratio", "higher", []string{"study_s", "throughput_rps"}, everyWL},
	{"audience.set.hit_ratio", "ratio", "higher", []string{"study_s", "throughput_rps"}, everyWL},
	{"audience.demo.hit_ratio", "ratio", "higher", []string{"study_s", "throughput_rps"}, everyWL},
	{"audience.evictions", "count", "lower", []string{"study_s", "throughput_rps"}, everyWL},
	{"audience.coalesced", "count", "higher", []string{"study_s", "throughput_rps"}, everyWL},
	{"population.rows", "count", "lower", []string{"rss_peak_mb", "setup_s"}, everyWL},
	{"population.row_mib", "MiB", "lower", []string{"rss_peak_mb", "setup_s"}, everyWL},
	{"process.allocs_per_req", "count", "lower", []string{"throughput_rps"}, floods},
	{"process.bytes_per_req", "B", "lower", []string{"throughput_rps"}, floods},
	{"process.cpu_ms_per_req", "ms", "lower", []string{"throughput_rps"}, floods},
	{"core.collect_s.LP", "s", "lower", []string{"study_s"}, study},
	{"core.collect_s.R", "s", "lower", []string{"study_s"}, study},
	{"core.source_busy_s", "s", "lower", []string{"study_s"}, study},
	{"core.estimate_s", "s", "lower", []string{"study_s"}, study},
	{"core.resample_us", "us", "lower", []string{"study_s"}, study},
	{"parallel.cpu_util.collect", "ratio", "higher", []string{"study_s"}, study},
	{"parallel.cpu_util.estimate", "ratio", "higher", []string{"study_s"}, study},
	{"setup.catalog_s", "s", "lower", []string{"setup_s"}, everyWL},
	{"setup.model_s", "s", "lower", []string{"setup_s"}, everyWL},
	{"setup.panel_s", "s", "lower", []string{"setup_s"}, study},
	{"setup.warmup_s", "s", "lower", []string{"setup_s"}, floods},
	{"overhead.throughput_rps", "ratio", "higher", []string{"throughput_rps"}, everyWL},
	{"overhead.latency_p50_ms", "ratio", "lower", []string{"latency_p50_ms"}, everyWL},
	{"overhead.latency_p90_ms", "ratio", "lower", []string{"latency_p90_ms"}, everyWL},
	{"overhead.study_s", "ratio", "lower", []string{"study_s"}, everyWL},
}

// ladderRungs are the layers one warm 18-interest conjunction climbs, from
// the engine cache hit up to the two-shard proxy (ROADMAP aim 1). Each rung
// yields ladder.<rung>.ns and ladder.<rung>.allocs on every workload's
// traced run.
var ladderRungs = []string{
	"engine_hit",
	"local_backend",
	"sharded_backend_2",
	"adsapi_handler",
	"adsapi_http",
	"proxy_1",
	"proxy_2",
}

func init() {
	for _, r := range ladderRungs {
		perLayerMetrics = append(perLayerMetrics,
			perLayer{"ladder." + r + ".ns", "ns", "lower", []string{"latency_p50_ms", "throughput_rps"}, everyWL},
			perLayer{"ladder." + r + ".allocs", "count", "lower", []string{"throughput_rps"}, everyWL})
	}
}

func unitOf(name string) string {
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
