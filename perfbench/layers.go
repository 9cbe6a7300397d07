package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// traceMetrics derives the per-layer metrics of a traced run: span
// aggregates of the timed operations, the workload's ablations, the
// simulated counters of its MICCO runs, and the tracing overhead.
func traceMetrics(ctx context.Context, b bench, e *env, cfg config, outs []*opOut, opSec []float64, results map[string]record, failed int, m metricSet, w io.Writer) error {
	tr := e.tr
	var last *opOut
	var pairs, simPairs, overhead, writes, decisions, flops, opTotal float64
	for i, out := range outs {
		opTotal += opSec[i]
		if out == nil {
			continue
		}
		last = out
		pairs += float64(out.pairs)
		simPairs += float64(out.simPairs)
		overhead += out.overhead.Seconds()
		writes += out.ckptWrites
		decisions += float64(out.decisions)
		flops += float64(out.flops)
	}
	n := float64(len(outs))

	ratio, err := traceOverhead(ctx, b, e, min(2*time.Second, time.Duration(cfg.seconds*float64(time.Second))))
	if err != nil {
		return fmt.Errorf("trace overhead: %w", err)
	}
	carves, err := b.calibrate(ctx, e, last, m)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	st := tr.totals()
	layers, snapshot := st.attribute(carves)
	perOp := func(name string) float64 { return st.dur[name] / n / 1e6 }
	perCall := func(name string) float64 {
		if st.count[name] == 0 {
			return 0
		}
		return st.dur[name] / float64(st.count[name])
	}

	m["redstar.decode_ms"] = perOp("redstar.decode")
	m["redstar.build_ms"] = perOp("redstar.build")
	m["workload.generate_ms"] = tr.setupMedian("workload.generate") / 1e6
	m["workload.decode_ms"] = tr.setupMedian("workload.decode") / 1e6
	m["autotune.corpus_s"] = tr.setupMedian("autotune.corpus") / 1e9
	m["autotune.train_s"] = tr.setupMedian("autotune.train") / 1e9
	m["core.assign_ns_per_pair"] = perCall("core.assign")
	m["core.begin_stage_us"] = perCall("core.begin_stage") / 1e3
	m["hier.assign_ns_per_pair"] = perCall("hier.assign")
	m["baseline.assign_ns_per_pair"] = perCall("baseline.assign")
	m["sched.run_ms"] = perOp("sched.run") + perOp("supervise.run")
	m["sched.overhead_ms"] = overhead / n * 1e3
	m["sched.ckpt_writes"] = writes / n
	if _, ok := b.(*numericBench); ok && len(carves) > 0 {
		m["sched.numeric_ms"] = max(0, st.mixed/n-carves[0].ns) / 1e6
	}
	if simPairs > 0 {
		m["gpusim.self_ns_per_pair"] = (layers["gpusim"] - snapshot) * n / simPairs
	}
	if flops > 0 {
		m["numeric_gflops"] = flops / opTotal / 1e9
	}
	m["obs.decisions_per_op"] = decisions / n

	// Simulated counters of the MICCO runs, summed over the inputs.
	var s record
	var pat [4]int64
	var shape [3]float64
	var inPairs float64
	for _, in := range b.inputs() {
		r := results[in+"/"+b.micco()]
		s.Makespan += r.Makespan
		s.Hits += r.Hits
		s.Cold += r.Cold
		s.Evictions += r.Evictions
		s.H2D += r.H2D
		s.P2P += r.P2P
		s.D2H += r.D2H
		s.Inter += r.Inter
		s.FaultsInjected += r.FaultsInjected
		s.DevicesLost += r.DevicesLost
		s.PairsRescheduled += r.PairsRescheduled
		s.TransientRetries += r.TransientRetries
		s.Attempts += r.Attempts
		shape[0] += float64(r.Ops)
		shape[1] += float64(r.Graphs)
		shape[2] += float64(r.Blocks)
		for _, out := range outs {
			if out != nil && len(out.records) > 0 && out.records[0].Input == in {
				inPairs += float64(out.pairs)
				for k, v := range out.patterns[in] {
					pat[k] += v
				}
				break
			}
		}
	}
	k := float64(len(b.inputs()))
	m["redstar.ops"] = shape[0] / k
	m["redstar.graphs"] = shape[1] / k
	m["redstar.blocks"] = shape[2] / k
	m["workload.pairs"] = inPairs / k
	for i, name := range []string{"twoRepeatedSame", "twoRepeatedDiff", "oneRepeated", "twoNew"} {
		m["core.pattern."+name] = float64(pat[i])
	}
	m["gpusim.makespan_s"] = s.Makespan
	m["gpusim.reuse_hits"] = float64(s.Hits)
	m["gpusim.cold_misses"] = float64(s.Cold)
	if s.Hits+s.Cold > 0 {
		m["gpusim.hit_ratio"] = float64(s.Hits) / float64(s.Hits+s.Cold)
	}
	m["gpusim.evictions"] = float64(s.Evictions)
	m["gpusim.h2d_gb"] = float64(s.H2D) / 1e9
	m["gpusim.p2p_gb"] = float64(s.P2P) / 1e9
	m["gpusim.d2h_gb"] = float64(s.D2H) / 1e9
	m["gpusim.internode_gb"] = float64(s.Inter) / 1e9
	m["fault.injected"] = float64(s.FaultsInjected)
	m["fault.devices_lost"] = float64(s.DevicesLost)
	m["fault.pairs_rescheduled"] = float64(s.PairsRescheduled)
	m["fault.transient_retries"] = float64(s.TransientRetries)
	m["supervise.attempts"] = float64(s.Attempts)
	if last != nil && last.resumed {
		m["supervise.resumed_from_disk"] = 1
	}

	opMs := st.opNs / n / 1e6
	for _, l := range layerNames {
		m[l+".self_ms_per_op"] = layers[l] / 1e6
	}
	m["bench.op_ms_p50"] = median(append([]float64(nil), opSec...)) * 1e3
	m["bench.pairs_per_s"] = pairs / opTotal
	m["bench.trace_overhead_ratio"] = ratio
	if opMs > 0 {
		m["bench.unattributed_frac"] = layers["bench"] / 1e6 / opMs
	}
	m["bench.fail_frac"] = float64(failed) / n

	fmt.Fprintf(w, "attribution: %d operations, %.3f ms each; self time per operation by layer:\n", st.ops, opMs)
	for _, l := range append(append([]string(nil), layerNames...), "bench") {
		if v := layers[l]; v > 0 {
			fmt.Fprintf(w, "  %-10s %12.4f ms  %6.2f%%\n", l, v/1e6, 100*v/1e6/opMs)
		}
	}
	fmt.Fprintf(w, "attribution: sched.run and supervise.run self time (%.4f ms per operation) is split by ablation:\n", st.mixed/n/1e6)
	rest := true
	for _, c := range carves {
		fmt.Fprintf(w, "  %-10s %s\n", c.layer, c.how)
		rest = rest && c.ns != inf
	}
	if rest {
		fmt.Fprintln(w, "  gpusim     the rest: the engine loop and the timing simulation, which outside timing cannot separate")
	}
	return nil
}

// traceOverhead alternates untraced and traced runs of the same
// operation, at least three pairs and for at least d, and returns the
// ratio of their median wall times.
func traceOverhead(ctx context.Context, b bench, e *env, d time.Duration) (float64, error) {
	var on, off []float64
	start := time.Now()
	for k := 0; k < 3 || (time.Since(start) < d && k < 100); k++ {
		for _, traced := range []bool{false, true} {
			e.tr.on = traced
			t0 := time.Now()
			_, err := b.op(ctx, e, 0)
			d := time.Since(t0).Seconds()
			e.tr.on = true
			if err != nil {
				return 0, err
			}
			if traced {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return median(on) / median(off), nil
}

// setupMedian returns the median duration, in ns, of the set-up spans
// named name (0 when there are none).
func (t *tracer) setupMedian(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.op == opSetup && s.name == name {
			ds = append(ds, float64(s.busy))
		}
	}
	return median(ds)
}
