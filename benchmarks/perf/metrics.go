package main

import "fmt"

// metricDef names one metric of BENCHMARK.json; the smoke test keeps
// the two lists and the file in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the system sees, measured with tracing
// off. failed_share is not in the list: it is expected to be exactly
// 0, and a bound relative to 0 means nothing — every run reports
// attempted/failed beside the metrics and exits non-zero on a failure.
//
// The bounds are about twice the widest interquartile spread seen over
// ten seeds on this commit (README.md has the table): three workloads
// repeat within 0.03-0.04 on the latency metrics, but a co-tenant's
// busy minute on the 2-vCPU runner moves whichever runs fall into it by
// 10-20 %, and serve_sharded_bird2 showed 0.10-0.11.
var endToEnd = []metricDef{
	{"query_ms_p50", "ms", "lower", 0.20},
	{"query_ms_p95", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.20},
	{"mem_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced pass: <module>.<metric>. A metric that does
// not apply to a workload (shard.* without shards) reads 0 there.
var perLayer = []metricDef{
	{Name: "data.load_ms", Unit: "ms", Better: "lower"},
	{Name: "data.file_mb", Unit: "MB", Better: "lower"},
	{Name: "core.engine_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.label_input_ms", Unit: "ms", Better: "lower"},
	{Name: "core.grid_mapping_ms", Unit: "ms", Better: "lower"},
	{Name: "core.lower_bounding_ms", Unit: "ms", Better: "lower"},
	{Name: "core.upper_bounding_ms", Unit: "ms", Better: "lower"},
	{Name: "core.verification_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase_total_ms", Unit: "ms", Better: "lower"},
	{Name: "core.outside_phases_ms", Unit: "ms", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "core.verified_per_query", Unit: "count", Better: "lower"},
	{Name: "core.dist_comps_per_query", Unit: "count", Better: "lower"},
	{Name: "core.adj_computed_per_query", Unit: "count", Better: "lower"},
	{Name: "core.pruned_share", Unit: "share", Better: "higher"},
	{Name: "core.verified_share", Unit: "share", Better: "higher"},
	{Name: "grid.small_cells", Unit: "count", Better: "lower"},
	{Name: "grid.large_cells", Unit: "count", Better: "lower"},
	{Name: "grid.index_mb", Unit: "MB", Better: "lower"},
	{Name: "core.labelstore.used_share", Unit: "share", Better: "higher"},
	{Name: "core.labelstore.label_mb", Unit: "MB", Better: "lower"},
	{Name: "geom.within2_ns_per_point", Unit: "ns", Better: "lower"},
	{Name: "bitmap.or_compressed_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.speedup", Unit: "x", Better: "higher"},
	{Name: "server.handler_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.transport_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.hit_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.engine_runs", Unit: "1/query", Better: "lower"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},
	{Name: "server.swap_ms", Unit: "ms", Better: "lower"},
	{Name: "server.first_query_after_swap_ms", Unit: "ms", Better: "lower"},
	{Name: "server.rewarm_s", Unit: "s", Better: "lower"},
	{Name: "shard.scatter_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "shard.merge_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "shard.pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "shard.retries", Unit: "count", Better: "lower"},
	{Name: "shard.hedges", Unit: "count", Better: "lower"},
	{Name: "shard.failed_shards", Unit: "count", Better: "lower"},
	{Name: "shard.dist_comps_ratio", Unit: "x", Better: "lower"},
	{Name: "shard.slowdown_vs_solo", Unit: "x", Better: "lower"},
	{Name: "runtime.alloc_mb_per_query", Unit: "MB", Better: "lower"},
	{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

// metricSet collects one run's values for one of the two lists.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a value; naming a metric twice or one that is not in
// the list is a bug in the harness.
func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		panic(fmt.Sprintf("metric %s set twice", name))
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic(fmt.Sprintf("metric %s is not defined", name))
}

// fillZero gives every metric not set a 0: it does not apply here.
func (m *metricSet) fillZero() {
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			m.vals[d.Name] = 0
		}
	}
}
