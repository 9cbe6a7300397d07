package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"micco/internal/autotune"
	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/experiment"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/hier"
	"micco/internal/mlearn"
	"micco/internal/obs"
	"micco/internal/redstar"
	"micco/internal/sched"
	"micco/internal/supervise"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// fixedBounds are the reuse bounds of the fixed "micco" scheduler, the
// default of miccorun -bounds.
var fixedBounds = core.Bounds{0, 2, 0}

// env is what a workload gets from the harness.
type env struct {
	seed  int64
	procs int    // numeric pool size and corpus parallelism (<= nproc)
	tmp   string // scratch directory inside the checkout
	tr    *tracer
}

// call runs f inside a span named name.
func (e *env) call(name string, f func() error) error {
	sp := e.tr.begin(name)
	err := f()
	e.tr.end(sp)
	return err
}

// opOut is what one operation produced.
type opOut struct {
	pairs      int // input contraction pairs taken through the operation
	simPairs   int // pairs placed and simulated, over every scheduler run
	records    []record
	overhead   time.Duration       // Result.SchedOverhead, summed over runs
	patterns   map[string][4]int64 // reuse patterns of the MICCO run, by input
	flops      int64               // real complex128 FLOPs (numeric runs)
	decisions  int                 // decision records (traced run only)
	ckptWrites float64
	attempts   int
	resumed    bool
}

// bench is one workload.
type bench interface {
	// setup builds the workload's inputs; it is what setup_s times.
	setup(ctx context.Context, e *env) error
	// op runs operation i.
	op(ctx context.Context, e *env, i int) (*opOut, error)
	// reference recomputes, outside the timed region, the records the
	// operations are checked against where no pin applies, plus any
	// comparison runs (Groute) the operation itself does not make.
	reference(ctx context.Context, e *env) ([]record, error)
	// seedFree reports whether rec does not depend on the seed, so its pin
	// applies at every seed, not only at the default one.
	seedFree(rec record) bool
	// micco names the scheduler whose runs give sim_gflops and the
	// simulated per-layer counters; Groute's runs are the comparison.
	micco() string
	// inputs lists the distinct inputs the operations rotate through.
	inputs() []string
	// calibrate runs the traced run's same-input ablations and standalone
	// calls after the timed loop; last is the loop's last operation. It
	// returns the carves of mixed span time and sets any per-layer
	// metrics it measured.
	calibrate(ctx context.Context, e *env, last *opOut, m metricSet) ([]carve, error)
}

const grouteName = "Groute"

func newBench(name string) (bench, error) {
	switch name {
	case "deck-table6":
		return &deckBench{}, nil
	case "synth-wide":
		return &synthBench{}, nil
	case "numeric-deck":
		return &numericBench{}, nil
	case "durable-faults":
		return &durableBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"deck-table6", "synth-wide", "numeric-deck", "durable-faults"}

// runOne runs w under s on c inside a sched.run span and adds the result,
// recorded under input, to out.
func runOne(ctx context.Context, e *env, input string, w *workload.Workload, s sched.Scheduler, c *gpusim.Cluster, opts sched.Options, out *opOut) (*sched.Result, error) {
	var res *sched.Result
	err := e.call("sched.run", func() (err error) {
		res, err = sched.Run(ctx, w, s, c, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s under %s: %w", input, unwrap(s).Name(), err)
	}
	out.records = append(out.records, recordOf(input, res, c.InterNodeBytes()))
	out.overhead += res.SchedOverhead
	out.simPairs += w.NumPairs()
	if cs, ok := unwrap(s).(*core.Scheduler); ok {
		if out.patterns == nil {
			out.patterns = map[string][4]int64{}
		}
		out.patterns[input] = cs.PatternCounts()
	}
	return res, nil
}

func newCluster(e *env, cfg gpusim.Config) (*gpusim.Cluster, error) {
	var c *gpusim.Cluster
	err := e.call("gpusim.new_cluster", func() (err error) {
		c, err = gpusim.NewCluster(cfg)
		return err
	})
	return c, err
}

// ---------------------------------------------------------------------
// deck-table6: the paper's Table VI decks through the whole front end.

type deckBench struct {
	names   []string
	decks   [][]byte
	pred    *autotune.Predictor
	samples int
}

func (b *deckBench) setup(ctx context.Context, e *env) error {
	// Train the predictor as redstar does without -model. The harness
	// caches its corpus, so the train span times training alone.
	h := experiment.New(experiment.Options{Seed: e.seed, NumGPU: 8, Parallelism: e.procs})
	var corpus *mlearn.Dataset
	if err := e.call("autotune.corpus", func() (err error) {
		corpus, err = h.Corpus(ctx)
		return err
	}); err != nil {
		return err
	}
	b.samples = corpus.Len()
	if err := e.call("autotune.train", func() (err error) {
		b.pred, err = h.Predictor(ctx)
		return err
	}); err != nil {
		return err
	}
	for _, c := range redstar.Bundled() {
		var buf bytes.Buffer
		if err := redstar.SaveDeck(&buf, c); err != nil {
			return err
		}
		b.names = append(b.names, c.Name)
		b.decks = append(b.decks, buf.Bytes())
	}
	return nil
}

func (b *deckBench) inputs() []string { return b.names }
func (b *deckBench) micco() string    { return "MICCO-optimal" }

// Only MICCO-optimal depends on the seed (through the trained model).
func (b *deckBench) seedFree(rec record) bool { return rec.Scheduler != b.micco() }

func (b *deckBench) op(ctx context.Context, e *env, i int) (*opOut, error) {
	k := i % len(b.decks)
	out, _, err := b.runDeck(ctx, e, k)
	return out, err
}

func (b *deckBench) runDeck(ctx context.Context, e *env, k int) (*opOut, *redstar.Build, error) {
	var c *redstar.Correlator
	if err := e.call("redstar.decode", func() (err error) {
		c, err = redstar.LoadDeck(bytes.NewReader(b.decks[k]))
		return err
	}); err != nil {
		return nil, nil, err
	}
	var bd *redstar.Build
	if err := e.call("redstar.build", func() (err error) {
		bd, err = c.BuildPlan()
		return err
	}); err != nil {
		return nil, nil, err
	}
	cfg := gpusim.MI100(8)
	cfg.MemoryBytes = 4 << 30
	cl, err := newCluster(e, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := &opOut{pairs: bd.Workload.NumPairs()}
	runs := []struct {
		layer string
		s     sched.Scheduler
	}{
		{"core", core.NewOptimal(b.pred)},
		{"core", core.NewFixed(fixedBounds)},
		{"baseline", baseline.NewGroute()},
	}
	for _, r := range runs {
		if _, err := runOne(ctx, e, c.Name, bd.Workload, e.tr.wrap(r.s, r.layer), cl, sched.Options{}, out); err != nil {
			return nil, nil, err
		}
	}
	for j := range out.records {
		out.records[j].Ops, out.records[j].Graphs, out.records[j].Blocks = len(bd.Plan.Ops), bd.NumGraphs, bd.Blocks
	}
	return out, bd, nil
}

func (b *deckBench) reference(ctx context.Context, e *env) ([]record, error) {
	var recs []record
	for k := range b.decks {
		out, _, err := b.runDeck(ctx, e, k)
		if err != nil {
			return nil, err
		}
		recs = append(recs, out.records...)
	}
	return recs, nil
}

func (b *deckBench) calibrate(ctx context.Context, e *env, last *opOut, m metricSet) ([]carve, error) {
	m["autotune.samples"] = float64(b.samples)
	return nil, nil
}

// ---------------------------------------------------------------------
// synth-wide: one wide stream scheduled on 1024 devices.

type synthBench struct {
	w *workload.Workload
}

func synthConfig(seed int64) workload.Config {
	return workload.Config{
		Seed: seed, Stages: 40, VectorSize: 256, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian,
	}
}

// generateDecoded generates a stream, writes it as wgen JSON and decodes
// it as miccorun does.
func generateDecoded(e *env, cfg workload.Config) (*workload.Workload, error) {
	var w *workload.Workload
	if err := e.call("workload.generate", func() (err error) {
		w, err = workload.Generate(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	var dec workload.Workload
	if err := e.call("workload.decode", func() error { return json.Unmarshal(raw, &dec) }); err != nil {
		return nil, fmt.Errorf("decode workload: %w", err)
	}
	if len(dec.Stages) == 0 {
		return nil, errors.New("decoded workload has no stages")
	}
	return &dec, nil
}

func (b *synthBench) setup(ctx context.Context, e *env) (err error) {
	b.w, err = generateDecoded(e, synthConfig(e.seed))
	return err
}

func (b *synthBench) inputs() []string     { return []string{b.w.Name} }
func (b *synthBench) micco() string        { return "MICCO" + fixedBounds.String() }
func (b *synthBench) seedFree(record) bool { return false }

func (b *synthBench) op(ctx context.Context, e *env, _ int) (*opOut, error) {
	cl, err := newCluster(e, gpusim.MI100Nodes(128, 8))
	if err != nil {
		return nil, err
	}
	out := &opOut{pairs: b.w.NumPairs()}
	runs := []struct {
		layer string
		s     sched.Scheduler
	}{
		{"core", core.NewFixed(fixedBounds)},
		{"hier", hier.New(16, fixedBounds)},
		{"baseline", baseline.NewGroute()},
	}
	for _, r := range runs {
		if _, err := runOne(ctx, e, b.w.Name, b.w, e.tr.wrap(r.s, r.layer), cl, sched.Options{}, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *synthBench) reference(ctx context.Context, e *env) ([]record, error) {
	out, err := b.op(ctx, e, 0)
	if err != nil {
		return nil, err
	}
	return out.records, nil
}

// calibrate measures the observability cost: the same MICCO run with a
// registry attached against one without, alternated.
func (b *synthBench) calibrate(ctx context.Context, e *env, _ *opOut, m metricSet) ([]carve, error) {
	cl, err := gpusim.NewCluster(gpusim.MI100Nodes(128, 8))
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for k := 0; k < 3; k++ {
		var t [2]float64
		for j, reg := range []*obs.Registry{nil, obs.New()} {
			t0 := time.Now()
			if _, err := sched.Run(ctx, b.w, core.NewFixed(fixedBounds), cl, sched.Options{Obs: reg}); err != nil {
				return nil, err
			}
			t[j] = time.Since(t0).Seconds()
		}
		ratios = append(ratios, t[1]/t[0])
	}
	m["obs.overhead_ratio"] = median(ratios)
	return nil, nil
}

// ---------------------------------------------------------------------
// numeric-deck: al_rhopi scaled to dimension 64, contracted for real.

type numericBench struct {
	bd *redstar.Build
}

func (b *numericBench) setup(ctx context.Context, e *env) error {
	c := redstar.A1RhoPi()
	// Batch 2 instead of the deck's 8 keeps the live tensors, which stay
	// resident until the correlator terms are fingerprinted, near 250 MB.
	c.TensorDim, c.Batch = 64, 2
	return e.call("redstar.build", func() (err error) {
		b.bd, err = c.BuildPlan()
		return err
	})
}

func (b *numericBench) inputs() []string     { return []string{b.bd.Correlator.Name} }
func (b *numericBench) micco() string        { return "MICCO" + fixedBounds.String() }
func (b *numericBench) seedFree(record) bool { return false }

func (b *numericBench) options(e *env, procs int) sched.Options {
	return sched.Options{Numeric: true, NumericSeed: e.seed, NumericReclaim: true, Parallelism: procs}
}

func (b *numericBench) run(ctx context.Context, e *env, opts sched.Options, s sched.Scheduler) (*opOut, error) {
	cl, err := newCluster(e, gpusim.MI100(8))
	if err != nil {
		return nil, err
	}
	w := b.bd.Workload
	out := &opOut{pairs: w.NumPairs()}
	if opts.Numeric {
		out.flops = w.TotalFLOPs()
	}
	if _, err := runOne(ctx, e, b.bd.Correlator.Name, w, s, cl, opts, out); err != nil {
		return nil, err
	}
	for j := range out.records {
		out.records[j].Ops, out.records[j].Graphs, out.records[j].Blocks = len(b.bd.Plan.Ops), b.bd.NumGraphs, b.bd.Blocks
	}
	return out, nil
}

func (b *numericBench) op(ctx context.Context, e *env, _ int) (*opOut, error) {
	return b.run(ctx, e, b.options(e, e.procs), e.tr.wrap(core.NewFixed(fixedBounds), "core"))
}

// reference is the serial (Parallelism 1) numeric run plus a
// simulate-only Groute run of the same input.
func (b *numericBench) reference(ctx context.Context, e *env) ([]record, error) {
	ref, err := b.run(ctx, e, b.options(e, 1), core.NewFixed(fixedBounds))
	if err != nil {
		return nil, err
	}
	gr, err := b.run(ctx, e, sched.Options{}, baseline.NewGroute())
	if err != nil {
		return nil, err
	}
	return append(ref.records, gr.records...), nil
}

// calibrate splits the numeric Run: a simulate-only Run of the same input
// gives the simulator's share, and a replay of the numeric work through
// the tensor API (input generation, serial contraction, norms) gives the
// kernels' share; the rest is the numeric store.
func (b *numericBench) calibrate(ctx context.Context, e *env, last *opOut, m metricSet) ([]carve, error) {
	w := b.bd.Workload
	var sims []float64
	for k := 0; k < 3; k++ {
		cl, err := gpusim.NewCluster(gpusim.MI100(8))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sched.Run(ctx, w, core.NewFixed(fixedBounds), cl, sched.Options{})
		if err != nil {
			return nil, err
		}
		sims = append(sims, float64(time.Since(t0)-res.SchedOverhead))
	}
	simNs := median(sims)
	rp, err := replayNumeric(w, e.seed)
	if err != nil {
		return nil, err
	}
	if last != nil && len(last.records) > 0 && rp.fingerprint != last.records[0].Fingerprint {
		return nil, fmt.Errorf("tensor replay fingerprint %x, engine %x", rp.fingerprint, last.records[0].Fingerprint)
	}
	gflop := float64(w.TotalFLOPs()) / 1e9
	m["tensor.input_gen_ms"] = rp.inputGen.Seconds() * 1e3
	m["tensor.contract_ms"] = rp.contract.Seconds() * 1e3
	m["tensor.contract_gflops"] = gflop / rp.contract.Seconds()
	m["tensor.norm_ms"] = rp.norm.Seconds() * 1e3
	m["tensor.gflop"] = gflop
	m["tensor.gb_moved_computed"] = rp.bytes / 1e9
	m["tensor.flops_per_byte"] = float64(w.TotalFLOPs()) / rp.bytes
	tensorNs := float64(rp.inputGen+rp.norm) + float64(rp.contract)/float64(e.procs)
	return []carve{
		{"gpusim", simNs, "simulate-only sched.Run of the same input", false},
		{"tensor", tensorNs, fmt.Sprintf("tensor API replay: input generation + norms + serial contraction / %d workers", e.procs), false},
		{"sched", inf, "rest of the numeric Run: the numeric store", false},
	}, nil
}

// ---------------------------------------------------------------------
// durable-faults: a faulted run that dies, then resumes from disk alone.

type durableBench struct {
	w    *workload.Workload
	plan *fault.Plan
	cfg  gpusim.Config
}

// lossStage/lossPair place the whole-cluster loss partway through;
// faultSeed generates the rest of the plan.
const (
	lossStage, lossPair = 20, 128
	faultSeed           = defaultSeed
)

func (b *durableBench) setup(ctx context.Context, e *env) (err error) {
	wc := synthConfig(e.seed)
	b.w, err = generateDecoded(e, wc)
	if err != nil {
		return err
	}
	b.cfg = gpusim.MI100(8)
	b.cfg.MemoryBytes = b.w.TotalUniqueBytes() / 8 / 2
	err = e.call("fault.generate", func() error {
		// The plan is fixed, not drawn from the benchmark seed: different
		// plans recover so differently that simulated results and operation
		// times would vary more between seeds than any bound could allow.
		b.plan = fault.Generate(fault.GenConfig{Seed: faultSeed, Stages: wc.Stages, PairsPerStage: wc.VectorSize, Devices: 8, Events: 6})
		for d := 0; d < 8; d++ {
			b.plan.Events = append(b.plan.Events, fault.Event{Kind: fault.DeviceLoss, Stage: lossStage, Pair: lossPair, Device: d})
		}
		return b.plan.Validate(8)
	})
	return err
}

func (b *durableBench) inputs() []string     { return []string{b.w.Name} }
func (b *durableBench) micco() string        { return "MICCO" + fixedBounds.String() }
func (b *durableBench) seedFree(record) bool { return false }

// flow runs the two supervised calls in a fresh checkpoint directory and
// removes it afterwards, unless keep is non-nil: then keep receives the
// directory and the caller removes it.
func (b *durableBench) flow(ctx context.Context, e *env, mk func() sched.Scheduler, withObs bool, keep *string) (*opOut, error) {
	dir, err := os.MkdirTemp(e.tmp, "ckpt-")
	if err != nil {
		return nil, err
	}
	if keep != nil {
		*keep = dir
	} else {
		defer os.RemoveAll(dir)
	}
	var reg *obs.Registry
	if withObs {
		sp := e.tr.begin("obs.new")
		reg = obs.New()
		e.tr.end(sp)
	}
	var cl *gpusim.Cluster
	cfg := supervise.Config{
		Workload:     b.w,
		NewScheduler: func(context.Context) (sched.Scheduler, error) { return mk(), nil },
		NewCluster: func() (*gpusim.Cluster, error) {
			c, err := gpusim.NewCluster(b.cfg)
			cl = c
			return c, err
		},
		Run:        sched.Options{FaultPlan: b.plan, CheckpointDir: dir, Obs: reg},
		MaxRetries: -1,
	}
	var st1 supervise.Stats
	err = e.call("supervise.run", func() (err error) {
		_, st1, err = supervise.Run(ctx, cfg)
		return err
	})
	// The first call must die at the cluster loss: that is the stand-in
	// for process death.
	if !errors.Is(err, sched.ErrClusterLost) {
		return nil, fmt.Errorf("first supervised call: want %v, got %v", sched.ErrClusterLost, err)
	}
	cfg.MaxRetries = 0
	cfg.ResumeFromDisk = true
	cfg.Backoff, cfg.MaxBackoff = time.Microsecond, time.Microsecond
	var res *sched.Result
	var st2 supervise.Stats
	if err := e.call("supervise.run", func() (err error) {
		res, st2, err = supervise.Run(ctx, cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("resumed supervised call: %w", err)
	}
	if !st2.ResumedFromDisk {
		return nil, errors.New("resumed supervised call did not read the checkpoint file")
	}
	out := &opOut{pairs: b.w.NumPairs(), simPairs: b.w.NumPairs(), overhead: res.SchedOverhead,
		attempts: st1.Attempts + st2.Attempts, resumed: st2.ResumedFromDisk}
	rec := recordOf(b.w.Name, res, cl.InterNodeBytes())
	rec.Attempts = out.attempts
	out.records = []record{rec}
	if reg != nil {
		out.ckptWrites = reg.Counter("micco_checkpoint_writes_total").Value()
		if e.tr.on {
			out.decisions = len(reg.Decisions())
		}
	}
	if keep == nil {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *durableBench) op(ctx context.Context, e *env, _ int) (*opOut, error) {
	return b.flow(ctx, e, func() sched.Scheduler { return e.tr.wrap(core.NewFixed(fixedBounds), "core") }, true, nil)
}

func (b *durableBench) reference(ctx context.Context, e *env) ([]record, error) {
	var recs []record
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return core.NewFixed(fixedBounds) },
		func() sched.Scheduler { return baseline.NewGroute() },
	} {
		out, err := b.flow(ctx, e, mk, true, nil)
		if err != nil {
			return nil, err
		}
		recs = append(recs, out.records...)
	}
	return recs, nil
}

// calibrate times the durable codec and the snapshot path as standalone
// calls on the checkpoint an operation leaves behind, and splits the
// supervised runs by ablation: the simulation alone, the snapshots, the
// registry, and the rest, which is the durable codec.
func (b *durableBench) calibrate(ctx context.Context, e *env, last *opOut, m metricSet) ([]carve, error) {
	var dir string
	mk := func() sched.Scheduler { return core.NewFixed(fixedBounds) }
	out, err := b.flow(ctx, e, mk, true, &dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := sched.CheckpointPath(dir, b.w.Name)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	cl, err := gpusim.NewCluster(b.cfg)
	if err != nil {
		return nil, err
	}
	var load, enc, save, restore, snap []float64
	scratch := path + ".bench"
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		cp, err := sched.LoadCheckpointFile(path)
		load = append(load, float64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := sched.EncodeCheckpoint(io.Discard, cp); err != nil {
			return nil, err
		}
		enc = append(enc, float64(time.Since(t0)))
		t0 = time.Now()
		if _, err := sched.SaveCheckpointFile(scratch, cp); err != nil {
			return nil, err
		}
		save = append(save, float64(time.Since(t0)))
		t0 = time.Now()
		if err := cl.Restore(cp.Cluster()); err != nil {
			return nil, err
		}
		restore = append(restore, float64(time.Since(t0)))
		t0 = time.Now()
		cl.Checkpoint()
		snap = append(snap, float64(time.Since(t0)))
	}
	loadNs, encNs, saveNs, restoreNs, snapNs := median(load), median(enc), median(save), median(restore), median(snap)
	m["sched.ckpt_encode_ms"] = encNs / 1e6
	m["sched.ckpt_save_ms"] = saveNs / 1e6
	m["sched.ckpt_load_ms"] = loadNs / 1e6
	m["sched.ckpt_mb"] = float64(st.Size()) / 1e6
	m["gpusim.snapshot_ms"] = snapNs / 1e6
	m["gpusim.restore_ms"] = restoreNs / 1e6

	// Registry ablation, alternated so drift hits both sides alike.
	var with, without []float64
	for k := 0; k < 3; k++ {
		for _, on := range []bool{false, true} {
			t0 := time.Now()
			if _, err := b.flow(ctx, e, mk, on, nil); err != nil {
				return nil, err
			}
			if on {
				with = append(with, float64(time.Since(t0)))
			} else {
				without = append(without, float64(time.Since(t0)))
			}
		}
	}
	// The simulation's share: one unsupervised Run of the same stream
	// under the plan without its cluster loss, with no checkpoints and no
	// registry. An operation simulates about one whole stream.
	survivable := &fault.Plan{Seed: b.plan.Seed, Retry: b.plan.Retry, Events: b.plan.Events[:len(b.plan.Events)-8]}
	var sims []float64
	for k := 0; k < 3; k++ {
		c, err := gpusim.NewCluster(b.cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sched.Run(ctx, b.w, core.NewFixed(fixedBounds), c, sched.Options{FaultPlan: survivable})
		if err != nil {
			return nil, err
		}
		sims = append(sims, float64(time.Since(t0)-res.SchedOverhead))
	}
	writes := out.ckptWrites
	// Two resumes per operation restore the cluster: the disk resume and
	// the in-process retry after the repeated cluster loss.
	restores := float64(out.attempts - 1)
	return []carve{
		{"gpusim", median(sims), "sched.Run of the same stream and faults without the cluster loss, checkpoints or registry", false},
		{"gpusim", writes*snapNs + restores*restoreNs, fmt.Sprintf("%.0f Cluster.Checkpoint + %.0f Cluster.Restore, timed standalone", writes, restores), true},
		{"obs", median(with) - median(without), "the same flow with and without a registry", false},
		{"sched", inf, fmt.Sprintf("the rest: %.0f checkpoint encodes and fsyncs, 1 load, and the supervisor", writes), false},
	}, nil
}

// replay is the numeric work of a workload redone through the tensor API.
type replay struct {
	inputGen, contract, norm time.Duration
	bytes                    float64 // operand and result bytes the kernels touch
	fingerprint              float64
}

// replayNumeric regenerates w's inputs as the numeric store does (one
// seeded stream, in input order), contracts every pair serially, and
// takes each tensor's norm when its last reader is done; the sum of norms
// in ID order is the engine's fingerprint.
func replayNumeric(w *workload.Workload, seed int64) (*replay, error) {
	reads := map[uint64]int{}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			reads[p.A.ID]++
			reads[p.B.ID]++
		}
	}
	rp := &replay{}
	live := map[uint64]*tensor.Tensor{}
	norms := map[uint64]float64{}
	retire := func(id uint64) {
		t0 := time.Now()
		norms[id] = live[id].Norm()
		rp.norm += time.Since(t0)
		delete(live, id)
	}
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for _, d := range w.Inputs {
		t, err := tensor.NewRandom(d, rng)
		if err != nil {
			return nil, err
		}
		live[d.ID] = t
	}
	rp.inputGen = time.Since(t0)
	for _, d := range w.Inputs {
		if reads[d.ID] == 0 {
			retire(d.ID)
		}
	}
	for _, st := range w.Stages {
		for _, p := range st.Pairs {
			a, b := live[p.A.ID], live[p.B.ID]
			if a == nil || b == nil {
				return nil, fmt.Errorf("replay: operand of %v missing", p.Out)
			}
			t0 := time.Now()
			out, err := tensor.Contract(a, b, p.Out.ID, 1)
			rp.contract += time.Since(t0)
			if err != nil {
				return nil, err
			}
			rp.bytes += float64(p.A.Bytes() + p.B.Bytes() + p.Out.Bytes())
			live[p.Out.ID] = out
			for _, id := range []uint64{p.A.ID, p.B.ID} {
				if reads[id]--; reads[id] == 0 {
					retire(id)
				}
			}
		}
	}
	for id := range live {
		retire(id)
	}
	ids := make([]uint64, 0, len(norms))
	for id := range norms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rp.fingerprint += norms[id]
	}
	return rp, nil
}
