package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesMetrics keeps the
// two in step.
type metricDef struct {
	Name, Unit, Better string
}

// Every workload reports every end-to-end metric. On the serving
// workloads an "op" is one inference request. On replan it is one
// telemetry sample ingested by the control plane, except that
// overhead_p50_ms is the median full replan, and "served" is the mean
// modelled latency of the plan active after each sample. README.md has
// the full definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"overhead_p50_ms", "ms", "lower"},
	{"overhead_mean_ms", "ms", "lower"},
	{"served_mean_ms", "model_ms", "lower"},
	{"deadline_hit_frac", "frac", "higher"},
	{"ok_frac", "frac", "higher"},
	{"plan_latency_ms", "model_ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
}

// ingestKinds are the journal kinds a replayed sample can produce, in the
// order the per-kind Ingest metrics are listed.
var ingestKinds = []string{"full-replan", "delta-replan", "cheap-refresh", "deferred-min-interval", "deferred-budget", "no-change"}

// perLayer is the traced run's ledger. A layer a workload does not
// exercise reports 0 (the data plane on replan, the frontier tables on the
// serving workloads, which run edgeserved's default planner).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.sent", "count", "higher"},
		{"client.ok", "count", "higher"},
		{"client.err_status", "count", "lower"},
		{"client.err_timeout", "count", "lower"},
		{"client.err_disconnect", "count", "lower"},
		{"client.gen_late_p99_ms", "ms", "lower"},
		{"client.overhead_p99_ms", "ms", "lower"},
		{"client.do_self_p50_ms", "ms", "lower"},
		{"client.served_p50_ms", "model_ms", "lower"},
		{"client.served_p99_ms", "model_ms", "lower"},
		{"wire.bytes_per_req", "B", "lower"},
		{"wire.codec_us_per_req", "us", "lower"},
		{"agent.overhead_local_p50_ms", "ms", "lower"},
		{"agent.hop_p50_ms", "ms", "lower"},
		{"agent.cross_frac", "frac", "lower"},
		{"agent.queue_p50_ms", "model_ms", "lower"},
		{"agent.queue_p90_ms", "model_ms", "lower"},
		{"agent.dispatcher_cpu_us_per_req", "us", "lower"},
		{"agent.edgeagent_cpu_us_per_cross", "us", "lower"},
		{"dataplane.alloc_pushes", "count", "lower"},
		{"dataplane.telemetry_coalesced", "count", "higher"},
		{"dataplane.telemetry_dropped", "count", "lower"},
		{"dataplane.request_retries", "count", "lower"},
		{"dataplane.client_shed", "count", "lower"},
		{"dataplane.clients_dropped", "count", "lower"},
		{"serve.replans.full", "count", "lower"},
		{"serve.replans.delta", "count", "lower"},
		{"serve.replans.cheap", "count", "lower"},
		{"serve.replans.deferred", "count", "lower"},
		{"serve.no_change", "count", "higher"},
		{"serve.replay_s", "s", "lower"},
	}
	for _, k := range ingestKinds {
		defs = append(defs, metricDef{"serve.ingest_ms." + k + ".p50", "ms", "lower"},
			metricDef{"serve.ingest_ms." + k + ".n", "count", "lower"})
	}
	return append(defs,
		metricDef{"serve.frontier.build_probes", "count", "lower"},
		metricDef{"serve.frontier.tables", "count", "lower"},
		metricDef{"joint.plan_s", "s", "lower"},
		metricDef{"joint.plan_delta_s", "s", "lower"},
		metricDef{"joint.refresh_ms", "ms", "lower"},
		metricDef{"joint.iterations", "count", "lower"},
		metricDef{"joint.shards", "count", "lower"},
		metricDef{"joint.surgery_ops", "count", "lower"},
		metricDef{"joint.frontier_hit_ratio", "frac", "higher"},
		metricDef{"joint.surgery_cache_hit_ratio", "frac", "higher"},
		metricDef{"surgery.table_build_s", "s", "lower"},
		metricDef{"surgery.table_extend_s", "s", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"trace.spans", "count", "lower"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect turns a workload's measured values into the reported metric set
// for defs, refusing a missing or non-finite value.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
