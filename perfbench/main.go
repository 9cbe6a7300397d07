// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — a stream of identical operations over seeded inputs — for a
// fixed time with no instrumentation, checks every output, and prints the
// end-to-end metrics; with --trace 1 it instead records a span around
// every call into a layer and prints the per-layer table. See README.md
// in this directory for the workloads and the metric catalogue.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload synth-wide --seed 7 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pins in pins.json were recorded at; it is
// redstar's default seed, so deck-table6 trains the same model redstar does.
const defaultSeed = 2022

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	procs     int
	setups    int
	minOps    int
	tmp       string
	spans     string
	printPins bool
}

// result is one run's verdict and metrics.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`

	records []record // first record per key, for tests
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// At least three set-ups, more until they took a second (setup_s is
	// their median); at least 21 operations, so op_ms_tail has ten samples
	// beyond it even when --seconds fits fewer.
	cfg := config{setups: 3, minOps: 21}
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the operation loop runs")
	fs.IntVar(&traceN, "trace", 0, "1 records spans and prints the per-layer metrics instead")
	fs.IntVar(&cfg.procs, "procs", runtime.NumCPU(), "numeric pool size and corpus parallelism (at most nproc)")
	fs.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for checkpoint files")
	fs.StringVar(&cfg.spans, "spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>.tsv)")
	fs.BoolVar(&cfg.printPins, "print-pins", false, "print this run's records as pins.json entries for the workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceN == 1
	if err := cfg.validate(traceN); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := measure(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.printPins {
		b, _ := json.MarshalIndent(map[string][]record{cfg.workload: res.records}, "", "  ")
		fmt.Fprintln(stdout, string(b))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func (c *config) validate(traceN int) error {
	if _, err := newBench(c.workload); err != nil {
		return err
	}
	if traceN != 0 && traceN != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceN)
	}
	if n := runtime.NumCPU(); c.procs < 1 || c.procs > n {
		return fmt.Errorf("--procs %d: must be between 1 and nproc (%d)", c.procs, n)
	}
	if c.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if c.spans == "" {
		c.spans = filepath.Join(".bench_build", "spans", c.workload+".tsv")
	}
	return nil
}

// measure runs the workload and returns its checked metrics, printing the
// host stamp, the sizes used and a human-readable report to w.
func measure(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	host := hostStamp()
	fmt.Fprintf(w, "host: %s\n", host)
	fmt.Fprintf(w, "sizes: workload=%s seed=%d seconds=%g min_ops=%d setups=%d procs=%d (numeric pool and corpus parallelism) trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.minOps, cfg.setups, cfg.procs, cfg.trace)
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(cfg.trace)
	e := &env{seed: cfg.seed, procs: cfg.procs, tmp: cfg.tmp, tr: tr}

	// Set up several times; setup_s is the median, the last set-up is used.
	var b bench
	var setups []float64
	var setupTotal float64
	tr.op = opSetup
	for k := 0; k < cfg.setups || (setupTotal < 1 && k < 25); k++ {
		nb, err := newBench(cfg.workload)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := nb.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d)
		setupTotal += d
		b = nb
	}

	// The timed loop.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var opSec []float64
	var outs []*opOut
	var failures []string
	start := time.Now()
	for i := 0; i < cfg.minOps || time.Since(start).Seconds() < cfg.seconds; i++ {
		tr.op = int32(i)
		sp := tr.begin("bench.op")
		t0 := time.Now()
		out, err := b.op(ctx, e, i)
		d := time.Since(t0)
		tr.end(sp)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		opSec = append(opSec, d.Seconds())
		outs = append(outs, out)
		if err != nil {
			failures = append(failures, fmt.Sprintf("op %d: %v", i, err))
		}
	}
	tr.op = opCalibrate
	runtime.ReadMemStats(&ms1)

	// Checks, outside the timed region.
	correct := true
	want, err := expected(ctx, b, e, cfg)
	if err != nil {
		return nil, err
	}
	for _, msg := range want.problems {
		correct = false
		fmt.Fprintf(w, "check: reference: %s\n", msg)
	}
	failed := 0
	for i, out := range outs {
		bad := false
		if out == nil {
			bad = true
		} else {
			for _, msg := range checkOp(out, want.records) {
				failures = append(failures, fmt.Sprintf("op %d: %s", i, msg))
				bad = true
			}
		}
		if bad {
			failed++
		}
	}
	for _, msg := range failures {
		fmt.Fprintf(w, "check: %s\n", msg)
	}
	if failed > 0 {
		correct = false
	}
	results := firstRecords(outs, want.ref)

	m := metricSet{}
	var pairs, opTotal float64
	for i, out := range outs {
		opTotal += opSec[i]
		if out != nil {
			pairs += float64(out.pairs)
		}
	}
	n := float64(len(outs))
	p50 := median(append([]float64(nil), opSec...)) * 1e3
	tail, pct := tailPercentile(opSec)
	simG, speedup := simSummary(b, results)
	m["pairs_per_s"] = pairs / opTotal
	m["op_ms_p50"] = p50
	m["op_ms_tail"] = tail * 1e3
	m["setup_s"] = median(append([]float64(nil), setups...))
	m["sim_gflops"] = simG
	m["sim_speedup_vs_groute"] = speedup
	m["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n / 1e6
	m["max_rss_mb"] = maxRSSMB()
	fmt.Fprintf(w, "operations: %d in %.2f s; op_ms_tail is p%.1f of %d operations; failed %d (fail_frac %.4g)\n",
		len(outs), opTotal, pct, len(outs), failed, float64(failed)/n)
	fmt.Fprintf(w, "setup_s: median of %d set-ups\n", len(setups))

	defs := endToEnd
	if cfg.trace {
		if err := traceMetrics(ctx, b, e, cfg, outs, opSec, results, failed, m, w); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(cfg.spans, host); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.spans), cfg.spans)
		defs = perLayer
	}
	metrics, err := m.emit(defs)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		kind := "host"
		if d.sim {
			kind = "sim"
		}
		fmt.Fprintf(w, "metric %-32s %16.6g %-7s %s\n", d.name, metrics[d.name].Value, d.unit, kind)
	}
	var recs []record
	for _, r := range results {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key() < recs[j].key() })
	return &result{Correct: correct, Attempted: len(outs), Failed: failed, Metrics: metrics, records: recs}, nil
}

// Operation ids of spans outside the timed loop.
const (
	opSetup     = -2
	opCalibrate = -1
)

// want is what the operations are checked against.
type want struct {
	records  map[string]record // the pin where one applies, else the reference
	ref      map[string]record // the reference runs alone
	problems []string          // reference runs that disagree with their pins
}

// expected computes the reference records and overlays the pins that
// apply at this seed; a reference that disagrees with a pin is reported.
func expected(ctx context.Context, b bench, e *env, cfg config) (*want, error) {
	on := e.tr.on
	e.tr.on = false
	ref, err := b.reference(ctx, e)
	e.tr.on = on
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	wt := &want{records: map[string]record{}, ref: map[string]record{}}
	for _, r := range ref {
		wt.records[r.key()] = r
		wt.ref[r.key()] = r
	}
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	for _, p := range pins[cfg.workload] {
		if cfg.seed != defaultSeed && !b.seedFree(p) {
			continue
		}
		if r, ok := wt.records[p.key()]; ok {
			if d := diff(r, p); d != "" {
				wt.problems = append(wt.problems, fmt.Sprintf("%s: %s", p.key(), d))
			}
		}
		wt.records[p.key()] = p
	}
	return wt, nil
}

// checkOp compares every record of an operation with the expected one and
// checks that every pair of the input ran.
func checkOp(out *opOut, want map[string]record) []string {
	var bad []string
	for _, r := range out.records {
		wr, ok := want[r.key()]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no reference record", r.key()))
		case diff(r, wr) != "":
			bad = append(bad, fmt.Sprintf("%s: %s", r.key(), diff(r, wr)))
		}
		if r.Kernels < int64(out.pairs) || r.Makespan <= 0 {
			bad = append(bad, fmt.Sprintf("%s: %d kernels for %d pairs, makespan %g", r.key(), r.Kernels, out.pairs, r.Makespan))
		}
	}
	return bad
}

// firstRecords returns, per key, the first record the operations produced,
// completed from the reference runs for keys no operation ran (the
// comparison runs of workloads whose operation runs MICCO only).
func firstRecords(outs []*opOut, want map[string]record) map[string]record {
	res := map[string]record{}
	for _, out := range outs {
		if out == nil {
			continue
		}
		for _, r := range out.records {
			if _, ok := res[r.key()]; !ok {
				res[r.key()] = r
			}
		}
	}
	for k, r := range want {
		if _, ok := res[k]; !ok {
			res[k] = r
		}
	}
	return res
}

// simSummary returns the geometric means, over the workload's inputs, of
// the MICCO run's simulated GFLOPS and of its speedup over Groute.
func simSummary(b bench, results map[string]record) (gflops, speedup float64) {
	var gs, sp []float64
	for _, in := range b.inputs() {
		mr, ok := results[in+"/"+b.micco()]
		if !ok {
			continue
		}
		gs = append(gs, mr.GFLOPS)
		if gr, ok := results[in+"/"+grouteName]; ok && gr.GFLOPS > 0 {
			sp = append(sp, mr.GFLOPS/gr.GFLOPS)
		}
	}
	return geomean(gs), geomean(sp)
}
