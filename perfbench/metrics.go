package main

import (
	"fmt"
	"math"
	"sort"
)

var inf = math.Inf(1)

// metricDef declares one metric: its unit, and whether it is measured in
// host time or simulated (which repeats exactly).
type metricDef struct {
	name, unit string
	sim        bool
}

// endToEnd are the metrics of the untraced run (--trace 0), emitted by
// every workload.
var endToEnd = []metricDef{
	{"pairs_per_s", "1/s", false},
	{"op_ms_p50", "ms", false},
	{"op_ms_tail", "ms", false},
	{"setup_s", "s", false},
	{"sim_gflops", "GFLOPS", true},
	{"sim_speedup_vs_groute", "ratio", true},
	{"alloc_mb_per_op", "MB", false},
	{"max_rss_mb", "MB", false},
}

// layerNames are the layers whose self time the traced run reports.
var layerNames = []string{"redstar", "workload", "autotune", "core", "hier", "baseline", "sched", "gpusim", "tensor", "fault", "supervise", "obs"}

// perLayer are the metrics of the traced run (--trace 1), emitted by every
// workload; a layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"redstar.decode_ms", "ms", false},
		{"redstar.build_ms", "ms", false},
		{"redstar.ops", "count", true},
		{"redstar.graphs", "count", true},
		{"redstar.blocks", "count", true},
		{"workload.generate_ms", "ms", false},
		{"workload.decode_ms", "ms", false},
		{"workload.pairs", "count", true},
		{"autotune.corpus_s", "s", false},
		{"autotune.train_s", "s", false},
		{"autotune.samples", "count", true},
		{"core.assign_ns_per_pair", "ns", false},
		{"core.begin_stage_us", "us", false},
		{"hier.assign_ns_per_pair", "ns", false},
		{"baseline.assign_ns_per_pair", "ns", false},
		{"core.pattern.twoRepeatedSame", "count", true},
		{"core.pattern.twoRepeatedDiff", "count", true},
		{"core.pattern.oneRepeated", "count", true},
		{"core.pattern.twoNew", "count", true},
		{"sched.run_ms", "ms", false},
		{"sched.overhead_ms", "ms", false},
		{"sched.numeric_ms", "ms", false},
		{"sched.ckpt_encode_ms", "ms", false},
		{"sched.ckpt_save_ms", "ms", false},
		{"sched.ckpt_load_ms", "ms", false},
		{"sched.ckpt_mb", "MB", true},
		{"sched.ckpt_writes", "count", true},
		{"gpusim.self_ns_per_pair", "ns", false},
		{"gpusim.snapshot_ms", "ms", false},
		{"gpusim.restore_ms", "ms", false},
		{"gpusim.makespan_s", "s", true},
		{"gpusim.reuse_hits", "count", true},
		{"gpusim.cold_misses", "count", true},
		{"gpusim.hit_ratio", "ratio", true},
		{"gpusim.evictions", "count", true},
		{"gpusim.h2d_gb", "GB", true},
		{"gpusim.p2p_gb", "GB", true},
		{"gpusim.d2h_gb", "GB", true},
		{"gpusim.internode_gb", "GB", true},
		{"tensor.input_gen_ms", "ms", false},
		{"tensor.contract_ms", "ms", false},
		{"tensor.contract_gflops", "GFLOPS", false},
		{"tensor.norm_ms", "ms", false},
		{"tensor.gflop", "GFLOP", true},
		{"tensor.gb_moved_computed", "GB", true},
		{"tensor.flops_per_byte", "FLOP/B", true},
		{"numeric_gflops", "GFLOPS", false},
		{"fault.injected", "count", true},
		{"fault.devices_lost", "count", true},
		{"fault.pairs_rescheduled", "count", true},
		{"fault.transient_retries", "count", true},
		{"supervise.attempts", "count", true},
		{"supervise.resumed_from_disk", "bool", true},
		{"obs.overhead_ratio", "ratio", false},
		{"obs.decisions_per_op", "count", true},
	}
	for _, l := range layerNames {
		m = append(m, metricDef{l + ".self_ms_per_op", "ms", false})
	}
	return append(m,
		metricDef{"bench.op_ms_p50", "ms", false},
		metricDef{"bench.pairs_per_s", "1/s", false},
		metricDef{"bench.trace_overhead_ratio", "ratio", false},
		metricDef{"bench.unattributed_frac", "ratio", false},
		metricDef{"bench.fail_frac", "ratio", true},
	)
}()

// metricSet collects metric values by name.
type metricSet map[string]float64

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit returns every metric of defs with its unit; a metric nobody set
// reads 0. It fails on a value that JSON cannot carry.
func (m metricSet) emit(defs []metricDef) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// tailPercentile returns the highest percentile of xs, up to the 90th,
// with at least ten samples above it, and the percentile's rank. With ten
// samples or fewer no percentile qualifies and the minimum is returned at
// rank 0. The cap keeps a run of thousands of short operations from
// reporting its ten worst host hiccups instead of the program's tail.
func tailPercentile(xs []float64) (v, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := min(n-11, int(math.Ceil(0.9*float64(n)))-1)
	if k < 0 {
		return s[0], 0
	}
	return s[k], 100 * float64(k+1) / float64(n)
}
