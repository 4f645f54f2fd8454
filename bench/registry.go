package main

import (
	"fmt"
	"math"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's metric dictionary; BENCHMARK.json declares the same names
// and units, which TestMetricsMatchBenchmarkJSON enforces.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the partitioner or the daemon sees,
// measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"edge_cut", "edges"},
	{"max_imbalance", "ratio"},
}

// perLayer are the single-layer metrics, named after the module they
// measure. Span self times come from the traced call; a layer a workload
// does not run reports 0.
var perLayer = []metricDef{
	{"gen.build_s", "s"},
	{"graph.parse_ms_mean", "ms"},
	{"coarsen.self_s", "s"},
	{"coarsen.level.self_s", "s"},
	{"coarsen.levels", "count"},
	{"coarsen.coarsest_n", "vertices"},
	{"lp.round.self_s", "s"},
	{"lp.round.calls", "count"},
	{"lp.moves", "count"},
	{"lp.contract.self_s", "s"},
	{"hier.peak_mb", "MB"},
	{"hier.budget_mb", "MB"},
	{"initpart.self_s", "s"},
	{"initpart.cut", "edges"},
	{"serial.attempts", "count"},
	{"serial.project_s", "s"},
	{"kwayrefine.level.self_s", "s"},
	{"kwayrefine.pass.self_s", "s"},
	{"kwayrefine.pass.calls", "count"},
	{"kwayrefine.moves", "count"},
	{"kwayrefine.boundary_n", "vertices"},
	{"kwayrefine.gain_cache_updates", "count"},
	{"kwayrefine.moves_per_boundary", "ratio"},
	{"kwayrefine.finest_ns_per_edge", "ns"},
	{"kwayrefine.coarse_ns_per_edge", "ns"},
	{"parallel.distribute_s", "s"},
	{"parallel.sim_time_s", "sim_s"},
	{"parallel.rank_skew", "ratio"},
	{"pcoarsen.level.self_s", "s"},
	{"pinit.self_s", "s"},
	{"prefine.pass.self_s", "s"},
	{"prefine.pass.calls", "count"},
	{"prefine.moves", "count"},
	{"prefine.boundary_n", "vertices"},
	{"mpi.calls", "count"},
	{"mpi.bytes", "bytes"},
	{"mpi.wait_s", "sim_s"},
	{"service.req_per_s", "1/s"},
	{"service.hit_ratio", "ratio"},
	{"service.hit_ms_p50", "ms"},
	{"service.miss_ms_p50", "ms"},
	{"service.queue_ms_p50", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.rejected", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// metricSet holds measured values by metric name.
type metricSet map[string]float64

// set records a value; only declared metrics may be set, and a value that
// is not a finite number (a ratio over nothing) is recorded as 0.
func (ms metricSet) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ms[name] = v
}

// metricValue is the wire form of one metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export returns the values of defs, with 0 for any not measured.
func (ms metricSet) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: ms[d.name], Unit: d.unit}
	}
	return out
}
