// Package sched defines the multi-GPU scheduling framework of the MICCO
// reproduction: the Scheduler interface, the per-stage bookkeeping state the
// paper's algorithms read (mapGPUTensor load counts, mapGPUCom compute
// costs, mapGPUMem memory projections), and the execution engine that
// replays scheduler decisions onto the simulated cluster (and, optionally,
// onto real CPU tensor kernels for numeric validation).
package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/workload"
)

// Context is the scheduler-visible state, refreshed by the engine.
//
// Residency questions ("which GPUs hold tensor X?") are answered by the
// Cluster, which is ground truth across stages. Load questions ("how many
// tensors has GPU i been assigned?") use StageLoad, which resets at each
// stage boundary: the paper's reuse bounds are defined against the
// per-vector balance point numTensor/numGPU.
type Context struct {
	Cluster *gpusim.Cluster
	NumGPU  int
	// BalanceNum is ceil(stage tensor slots / NumGPU): the perfectly
	// balanced per-GPU tensor count for the current stage.
	BalanceNum int
	// StageLoad[i] is the number of tensor slots assigned to GPU i within
	// the current stage (the size of the paper's mapGPUTensor entry).
	StageLoad []int
	// Comp[i] is the cumulative kernel time (seconds) assigned to GPU i
	// (the paper's mapGPUCom). Schedulers that want the device's live
	// queue position — kernel plus memory-operation cost, realigned at
	// each stage barrier — should read Cluster.Device(i).Clock() instead.
	Comp []float64
	// Features are the current stage's data characteristics, for
	// schedulers that consult a reuse-bound model.
	Features workload.Features
	// StageIndex is the index of the current stage.
	StageIndex int
	// Down is the set of devices currently removed by fault injection
	// (always empty in fault-free runs). Schedulers must not assign pairs
	// to a down device — the engine rejects such placements with
	// ErrInvalidDevice. One bit test per candidate keeps the check free.
	Down gpusim.DevSet
	// Obs is the run's metrics registry, nil when observability is off.
	// All obs instruments are nil-safe, so schedulers may use it
	// unconditionally.
	Obs *obs.Registry
	// Decision, when non-nil, is the in-flight placement's decision
	// record. The engine fills the identity, pattern and cost fields;
	// schedulers fill the fields only they know (gating bound, policy,
	// candidate scores) inside Assign. Schedulers MUST guard on
	// Decision != nil before touching it — the nil check is what keeps
	// the placement hot path allocation-free when observability is off.
	Decision *obs.DecisionRecord
}

// Holders returns the devices on which tensor id is currently resident.
// It allocates a fresh slice per call; hot paths should use HoldersMask,
// or AppendHolders with a reused buffer.
func (c *Context) Holders(id uint64) []int { return c.Cluster.AppendHoldersOf(nil, id) }

// AppendHolders appends the devices holding tensor id to buf in ascending
// order and returns the extended slice; callers that reuse buf across
// queries pay no allocation.
func (c *Context) AppendHolders(buf []int, id uint64) []int {
	return c.Cluster.AppendHoldersOf(buf, id)
}

// HoldersMask returns the set of devices holding tensor id — one O(1)
// index probe, no allocation.
func (c *Context) HoldersMask(id uint64) gpusim.DevSet { return c.Cluster.HoldersMask(id) }

// HolderCount returns how many devices hold tensor id.
func (c *Context) HolderCount(id uint64) int { return c.Cluster.HoldersMask(id).Count() }

// ClassifyMasks maps a pair's holder sets to its local reuse pattern
// (paper Fig. 4): both operands share a device, both are resident on
// disjoint devices, exactly one is resident, or neither is. It is the one
// Table-II classification the engine, the MICCO scheduler and the
// baselines all share — two mask lookups and a few word tests, no device
// loop.
func ClassifyMasks(a, b gpusim.DevSet) obs.ReusePattern {
	switch {
	case a.Intersects(b):
		return obs.TwoRepeatedSame
	case !a.Empty() && !b.Empty():
		return obs.TwoRepeatedDiff
	case !a.Empty() || !b.Empty():
		return obs.OneRepeated
	default:
		return obs.TwoNew
	}
}

// Footprint is a pair's memory demand, read once per pair so schedulers
// projecting it onto many candidate devices size the tensors once: the
// bytes of operands A and B and of the output. B is zero when the pair
// contracts an operand with itself, so the shared operand counts once.
type Footprint struct{ A, B, Out int64 }

// FootprintOf returns pair p's footprint.
func FootprintOf(p *workload.Pair) Footprint {
	f := Footprint{A: p.A.Bytes(), Out: p.Out.Bytes()}
	if p.B.ID != p.A.ID {
		f.B = p.B.Bytes()
	}
	return f
}

// Projected returns the bytes a device now holding used bytes would hold
// after executing the pair there: current usage plus each operand it does
// not hold (holdsA, holdsB) plus the output.
func (f Footprint) Projected(used int64, holdsA, holdsB bool) int64 {
	m := used + f.Out
	if !holdsA {
		m += f.A
	}
	if !holdsB {
		m += f.B
	}
	return m
}

// ProjectedMem returns the bytes GPU dev would hold after executing pair p
// there: current usage plus any non-resident input plus the output.
func (c *Context) ProjectedMem(dev int, p workload.Pair) int64 {
	return FootprintOf(&p).Projected(c.Cluster.Device(dev).MemUsed(),
		c.HoldersMask(p.A.ID).Has(dev), c.HoldersMask(p.B.ID).Has(dev))
}

// WouldOversubscribe reports whether executing p on dev would exceed the
// device's memory pool (forcing evictions). It consults the device's
// effective capacity, which a fault plan's mem-shrink can hold below the
// configured pool size.
func (c *Context) WouldOversubscribe(dev int, p workload.Pair) bool {
	return c.ProjectedMem(dev, p) > c.Cluster.Device(dev).Capacity()
}

// Scheduler assigns tensor pairs to GPUs. Implementations must be
// deterministic given their construction parameters.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// BeginStage is called once per stage before any Assign call, letting
	// schedulers refresh per-stage state (e.g. predict reuse bounds).
	BeginStage(ctx *Context)
	// Assign returns the GPU (0..NumGPU-1) that should execute pair p.
	Assign(p workload.Pair, ctx *Context) int
}

// Options controls engine behaviour.
type Options struct {
	// DiscardDeadInputs drops input tensors from all memories after their
	// final consumer runs (workload LastUse marks). Off by default: the
	// paper's memory-cost accounting keeps data live.
	DiscardDeadInputs bool
	// Numeric executes every contraction with real complex128 arithmetic
	// on the CPU in addition to the timing simulation, enabling numeric
	// validation. Expensive; use small workloads.
	Numeric bool
	// NumericSeed seeds the random input data in numeric mode.
	NumericSeed int64
	// NumericWorkers bounds kernel parallelism within one contraction in
	// serial numeric mode (<=0 selects GOMAXPROCS). When Parallelism
	// resolves to more than one, the pool supplies the parallelism and
	// each contraction runs single-threaded.
	NumericWorkers int
	// FastKernels runs numeric contractions in the fast kernel tier
	// (tensor.ModeFast): FMA/AVX-512 fused micro-kernels selected by
	// runtime CPU detection, accurate to the documented ULP bound of the
	// exact tier rather than bit-identical to it (DESIGN.md §12). The
	// fingerprint remains deterministic for a fixed machine and
	// MICCO_KERNEL setting — scheduler choices, worker counts and
	// reclamation still cannot change it — but it is not comparable to
	// exact-mode goldens. Off by default: numeric mode stays bit-identical
	// to the seed kernels.
	FastKernels bool
	// NumericReclaim frees each numeric tensor's storage after its last
	// reader completes (liveness is exact, derived from the workload's
	// read counts, mirroring the simulator's DiscardDeadInputs policy) and
	// recycles the buffers through an arena feeding tensor.ContractInto,
	// so steady-state numeric execution is allocation-free and memory is
	// bounded by the live working set. Result.NumericFingerprint is
	// bit-identical with reclamation on or off, at any pool size. Off by
	// default: the store then keeps every tensor resident.
	NumericReclaim bool
	// Obs attaches a metrics registry to the run: the engine emits
	// per-stage spans and wall-clock phase timings, a DecisionRecord per
	// placement (reuse pattern, gating bound, candidate scores, predicted
	// vs actual transfer bytes), and the simulator feeds per-channel
	// transfer/eviction counters, link occupancy and memory high-water
	// marks into the same registry. Result.Metrics snapshots it at the
	// end of the run. Nil (the default) disables observability entirely;
	// the placement hot path then performs no extra allocations.
	Obs *obs.Registry
	// Parallelism bounds the numeric-validation worker pool. Scheduler
	// decisions and the timing simulation always replay sequentially (the
	// paper's Algorithms 1-2 are order-dependent), but the real CPU
	// contractions of numeric mode run on a dependency-aware pool that
	// overlaps them with scheduling: a contraction starts as soon as its
	// operand tensors exist. 0 selects runtime.GOMAXPROCS(0); 1 executes
	// every contraction inline on the engine goroutine (the serial
	// engine). Results are bit-for-bit identical at any setting.
	Parallelism int
	// RecordAssignments retains the per-pair device choices in the result.
	RecordAssignments bool
	// FaultPlan injects the plan's fault events (device loss, link
	// degradation, memory shrink, transient transfer failures) at their
	// deterministic pair boundaries and enables the recovery machinery:
	// lost outputs are recomputed on survivors, transient failures retried
	// under the plan's backoff policy. Nil (the default) disables fault
	// injection entirely; the per-pair hot path then costs one extra nil
	// check and no allocations.
	FaultPlan *fault.Plan
	// Checkpoint snapshots the run at every stage boundary;
	// Result.Checkpoint carries the latest snapshot — the completed run's
	// on success, the last boundary before failure when Run returns an
	// error (alongside the partial Result) — for Options.ResumeFrom.
	Checkpoint bool
	// ResumeFrom restarts a run from a stage-boundary checkpoint instead
	// of from scratch: the cluster is restored to the snapshot and
	// execution continues at Checkpoint.NextStage. The workload, cluster
	// shape and (for bit-identical fingerprints) numeric options must
	// match the checkpointed run; events of an attached FaultPlan that had
	// already fired do not re-fire.
	ResumeFrom *Checkpoint
	// CheckpointDir, when non-empty, persists stage-boundary checkpoints
	// durably (atomic write + fsync + rename) at
	// CheckpointPath(CheckpointDir, workload), so a run survives process
	// death and resumes from disk via LoadCheckpointFile. Implies
	// Checkpoint. The directory is created if missing.
	CheckpointDir string
	// CheckpointEvery writes a durable checkpoint only at every Nth stage
	// boundary (plus always the final one); <= 1 writes at every boundary.
	// In-memory snapshots (Result.Checkpoint) still update every stage.
	CheckpointEvery int
	// Progress, when non-nil, is bumped once per successfully placed pair
	// — a monotone liveness signal external watchdogs poll to detect a
	// stalled run without touching the engine. One nil check on the hot
	// path; no allocations either way.
	Progress *Progress
}

// PoolSize resolves Parallelism to the effective worker count.
func (o Options) PoolSize() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Result summarizes one engine run.
type Result struct {
	Scheduler string
	Workload  string
	// Makespan is the simulated wall time in seconds.
	Makespan float64
	// GFLOPS is total kernel FLOPs divided by makespan.
	GFLOPS float64
	// SchedOverhead is the real (host) time spent inside scheduler calls,
	// the paper's "scheduling overhead" (Table V).
	SchedOverhead time.Duration
	// Total aggregates device counters; PerDevice retains each device's.
	Total     gpusim.DeviceStats
	PerDevice []gpusim.DeviceStats
	// Assignments holds the chosen device per pair, stage-major, when
	// Options.RecordAssignments is set.
	Assignments [][]int
	// NumericFingerprint is the sum of Frobenius norms of all outputs in
	// numeric mode (0 otherwise). Scheduler choices must not change it.
	NumericFingerprint float64
	// Metrics is the end-of-run snapshot of Options.Obs (nil when
	// observability was off). Decision records are not embedded — read
	// them from the registry via Decisions().
	Metrics *obs.Snapshot
	// Recovery summarizes fault-injection and recovery activity; all
	// fields are zero when no fault plan was attached.
	Recovery RecoveryStats
	// Checkpoint is the latest stage-boundary snapshot when
	// Options.Checkpoint is set (nil otherwise): the final state on
	// success, the last completed boundary when the run failed mid-stage.
	Checkpoint *Checkpoint
}

// obsRun bundles the engine's per-run observability state: the registry,
// the run-level span, and the pre-resolved counters the per-pair loop
// feeds. A nil *obsRun disables everything at the cost of one pointer
// comparison per use.
type obsRun struct {
	reg      *obs.Registry
	runSpan  *obs.ActiveSpan
	patterns [obs.NumReusePatterns]*obs.Counter
	schedule *obs.Counter // wall seconds inside scheduler calls
	simulate *obs.Counter // wall seconds inside the timing simulator
	numeric  *obs.Counter // wall seconds in inline numeric contractions
}

// patternSeries pre-builds the reuse-pattern counter names so per-run
// observability setup performs no formatting.
var patternSeries = func() (t [obs.NumReusePatterns]string) {
	for p := range t {
		t[p] = `micco_sched_pattern_total{pattern="` + obs.ReusePattern(p).String() + `"}`
	}
	return
}()

func newObsRun(reg *obs.Registry, s Scheduler, w *workload.Workload) *obsRun {
	if reg == nil {
		return nil
	}
	o := &obsRun{reg: reg}
	o.runSpan = reg.StartSpan("run", nil)
	o.runSpan.SetAttr("scheduler", s.Name())
	o.runSpan.SetAttr("workload", w.Name)
	for p := 0; p < obs.NumReusePatterns; p++ {
		o.patterns[p] = reg.Counter(patternSeries[p])
	}
	o.schedule = reg.Counter("micco_engine_schedule_seconds_total")
	o.simulate = reg.Counter("micco_engine_simulate_seconds_total")
	o.numeric = reg.Counter("micco_engine_numeric_seconds_total")
	reg.ReserveDecisions(w.NumPairs())
	return o
}

// finish closes the run span and publishes the end-of-run gauges: run
// aggregates, per-device busy time, utilization and memory high-water.
func (o *obsRun) finish(res *Result, c *gpusim.Cluster) {
	if o == nil {
		return
	}
	o.reg.Gauge("micco_run_makespan_seconds").Set(res.Makespan)
	o.reg.Gauge("micco_run_gflops").Set(res.GFLOPS)
	o.reg.Counter("micco_sched_overhead_seconds_total").Add(res.SchedOverhead.Seconds())
	for i := 0; i < c.NumDevices(); i++ {
		d := c.Device(i)
		st := d.Stats()
		busy := st.KernelTime + st.TransferTime + st.EvictTime + st.AllocTime
		id := strconv.Itoa(i)
		o.reg.Gauge(fmt.Sprintf("micco_device_busy_seconds{device=%q}", id)).Set(busy)
		if res.Makespan > 0 {
			o.reg.Gauge(fmt.Sprintf("micco_device_utilization{device=%q}", id)).Set(busy / res.Makespan)
		}
		o.reg.Gauge(fmt.Sprintf("micco_device_mem_peak_bytes{device=%q}", id)).SetMax(float64(d.MemPeak()))
	}
	o.runSpan.End()
	res.Metrics = o.reg.Snapshot()
}

// engine is the per-run execution state: everything the stage loop, the
// placement path and the fault machinery share. One engine value lives per
// Run call; its hot-path fields are read through one pointer, keeping the
// fault-free per-pair loop free of allocations.
type engine struct {
	ctx   context.Context
	w     *workload.Workload
	s     Scheduler
	c     *gpusim.Cluster
	opts  Options
	ob    *obsRun
	sctx  *Context
	store *numericStore
	res   *Result
	// fr is the live fault-injection state, nil without a fault plan (the
	// per-pair cost of the feature is then a single nil check).
	fr *faultRun
	n  int
	// overhead is cumulative scheduler wall time; scheduleW/simulateW/
	// numericW are the current stage's wall-time attribution (zeroed at
	// each stage start).
	overhead                       time.Duration
	scheduleW, simulateW, numericW time.Duration
	// assignAll is the flat stage-major device-per-pair record, indexed
	// through stageOffsets so recovery re-placements of earlier pairs
	// update in place (nil unless RecordAssignments).
	assignAll    []int
	stageOffsets []int
	// lastCP is the latest stage-boundary snapshot; the next boundary
	// overwrites it in place.
	lastCP *Checkpoint
	// needed is recoverFrom's operand set, kept across recoveries.
	needed map[uint64]bool
	// prog mirrors opts.Progress (nil when unset); ckptWrites/ckptBytes
	// are the durable-checkpoint counters, resolved once per run (nil-safe
	// no-ops without observability).
	prog       *Progress
	ckptWrites *obs.Counter
	ckptBytes  *obs.Counter
	// ckptBuf holds the last durable encoding; the next write reuses it.
	ckptBuf []byte
	// decRec is the run's single decision-record scratch: placePair
	// resets and refills it per pair, RecordDecision deep-copies what it
	// keeps (including Candidates, into the registry's arena), so the
	// obs-on hot path performs no per-pair allocation.
	decRec obs.DecisionRecord
	// clock0 anchors all per-pair wall-time attribution: reading the
	// clock as a time.Since(clock0) delta costs one monotonic read,
	// about half a full time.Now (which also fetches wall time), and the
	// hot loop reads the clock up to three times per pair.
	clock0 time.Time
}

// dumpFlight freezes the flight recorder's current tail as the last dump
// (no-op without observability or a recorder), so the activity leading up
// to a failure survives for post-mortem analysis.
func (e *engine) dumpFlight(reason string) {
	if e.ob != nil {
		e.ob.reg.FlightRecorder().Dump(reason)
	}
}

// fail finishes an erroring run: with checkpointing on, the last
// stage-boundary snapshot (updated to the live fired-event mask, so the
// fatal event does not re-fire on resume) is attached to the partial
// result; otherwise the result is dropped as before. Losing the whole
// cluster additionally dumps the flight recorder: the post-mortem of an
// unrecoverable run is exactly what the recorder exists for.
func (e *engine) fail(err error) (*Result, error) {
	if errors.Is(err, ErrClusterLost) {
		e.dumpFlight(err.Error())
	}
	if e.opts.Checkpoint && e.lastCP != nil {
		if e.fr != nil {
			e.lastCP.faultsFired = append([]bool(nil), e.fr.fired...)
		}
		e.res.Checkpoint = e.lastCP
		return e.res, err
	}
	return nil, err
}

// discard drops a dead input. Under a fault plan only device copies are
// dropped: the host copy must survive as the recovery source if a later
// device loss destroys tensors the input's consumers produced.
func (e *engine) discard(id uint64) {
	if e.fr != nil {
		e.c.DiscardDeviceCopies(id)
	} else {
		e.c.Discard(id)
	}
}

// execSim runs one contraction on the simulator. Under a fault plan,
// injected transient transfer failures are retried under the plan's
// capped-exponential backoff policy, each retry charging its backoff to
// the device's simulated transfer queue; the error surfaces as fatal once
// the attempt budget is exhausted.
func (e *engine) execSim(si, dev int, p workload.Pair) (int64, error) {
	flops, err := e.c.ExecContraction(dev, p.A, p.B, p.Out)
	if err != nil && e.fr != nil {
		for attempt := 1; errors.Is(err, gpusim.ErrTransientTransfer); attempt++ {
			if attempt > e.fr.retry.Max {
				return 0, fmt.Errorf("sched: stage %d: %d transfer retries exhausted: %w", si, e.fr.retry.Max, err)
			}
			backoff := e.fr.retry.Backoff(attempt)
			if cerr := e.c.ChargeExternalTransfer(dev, backoff); cerr != nil {
				return 0, cerr
			}
			e.res.Recovery.TransientRetries++
			e.res.Recovery.BackoffSimSeconds += backoff
			e.fr.retries.Inc()
			e.fr.backoff.Add(backoff)
			flops, err = e.c.ExecContraction(dev, p.A, p.B, p.Out)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("sched: stage %d: %w", si, err)
	}
	return flops, nil
}

// placePair runs one pair through the full placement path: decision-record
// setup, scheduler Assign (timed), device validation, simulated execution
// (with transient retry), decision actuals, per-stage load accounting,
// dead-input discard and numeric execution. recovery marks a re-placement
// by the failure-recovery path: the decision record is tagged, and the
// numeric contraction is NOT repeated (the CPU-side result already
// exists), which keeps fingerprints bit-identical to a fault-free run.
func (e *engine) placePair(si, pi int, p workload.Pair, recovery bool) error {
	sctx, c := e.sctx, e.c
	var rec *obs.DecisionRecord
	var ma, mb gpusim.DevSet
	var beforeMove, beforeD2H, beforeEvict int64
	if e.ob != nil {
		// One scratch record per run: the zero-value reset keeps the
		// Candidates backing array, which RecordDecision deep-copies into
		// its own arena, so the obs-on placement path allocates nothing.
		ma, mb = c.HoldersMask(p.A.ID), c.HoldersMask(p.B.ID)
		rec = &e.decRec
		cands := rec.Candidates[:0]
		*rec = obs.DecisionRecord{
			Stage: si, Pair: pi,
			Out: p.Out.ID, A: p.A.ID, B: p.B.ID,
			BalanceNum: sctx.BalanceNum, BoundIndex: -1,
			Pattern:    ClassifyMasks(ma, mb),
			Recovery:   recovery,
			Candidates: cands,
		}
		sctx.Decision = rec
	}
	tA := time.Since(e.clock0)
	dev := e.s.Assign(p, sctx)
	tB := time.Since(e.clock0)
	d0 := tB - tA
	e.overhead += d0
	e.scheduleW += d0
	if dev < 0 || dev >= e.n {
		return fmt.Errorf("sched: %w: %s assigned pair to device %d of %d", ErrInvalidDevice, e.s.Name(), dev, e.n)
	}
	if sctx.Down.Has(dev) {
		return fmt.Errorf("sched: %w: %s assigned stage %d pair %d to failed device %d", ErrInvalidDevice, e.s.Name(), si, pi, dev)
	}
	if rec != nil {
		sctx.Decision = nil
		rec.Device = dev
		rec.SimTime = c.Device(dev).Clock()
		// Assign never moves data, so the pre-Assign masks still describe
		// residency here.
		if !ma.Has(dev) {
			rec.PredictedBytes += p.A.Bytes()
		}
		if !mb.Has(dev) && p.B.ID != p.A.ID {
			rec.PredictedBytes += p.B.Bytes()
		}
		beforeMove, beforeD2H, beforeEvict = c.MoveStats()
	}
	flops, err := e.execSim(si, dev, p)
	if err != nil {
		return err
	}
	if rec != nil {
		afterMove, afterD2H, afterEvict := c.MoveStats()
		rec.ActualBytes = afterMove - beforeMove
		rec.ActualD2HBytes = afterD2H - beforeD2H
		rec.Evictions = afterEvict - beforeEvict
		e.ob.patterns[rec.Pattern].Inc()
		e.ob.reg.RecordDecision(rec)
	}
	sctx.StageLoad[dev] += 2
	sctx.Comp[dev] += float64(flops) / c.Device(dev).Profile().FLOPS
	if e.opts.DiscardDeadInputs {
		if p.LastUse[0] {
			e.discard(p.A.ID)
		}
		if p.LastUse[1] && p.B.ID != p.A.ID {
			e.discard(p.B.ID)
		}
	}
	if !recovery && e.store != nil {
		var tN time.Duration
		if e.ob != nil {
			tN = time.Since(e.clock0)
		}
		if err := e.store.exec(p); err != nil {
			return err
		}
		if e.ob != nil {
			e.numericW += time.Since(e.clock0) - tN
		}
	}
	if e.assignAll != nil {
		e.assignAll[e.stageOffsets[si]+pi] = dev
	}
	if e.prog != nil {
		e.prog.pairs.Add(1)
	}
	return nil
}

// Run replays workload w through scheduler s on cluster c. The cluster is
// reset first (or restored, with Options.ResumeFrom), so each Run is
// independent and deterministic.
//
// Scheduler decisions and the timing simulation replay sequentially; in
// numeric mode the real CPU contractions run on a dependency-aware worker
// pool sized by Options.Parallelism, overlapping with scheduling. ctx
// cancels the run: Run returns ctx.Err() promptly, checked at every pair.
//
// When Options.Obs is set the engine additionally records, into that
// registry: one DecisionRecord per placement, per-stage spans with
// schedule/simulate/numeric wall-time attribution, reuse-pattern counters,
// and end-of-run device gauges; Result.Metrics carries the snapshot.
//
// With Options.FaultPlan set the plan's events are injected at their
// deterministic pair boundaries and recovered from (Result.Recovery
// summarizes the damage); with Options.Checkpoint set an erroring run —
// fault-fatal or cancelled — returns its partial Result carrying the last
// stage-boundary checkpoint alongside the error.
func Run(ctx context.Context, w *workload.Workload, s Scheduler, c *gpusim.Cluster, opts Options) (*Result, error) {
	if w == nil || s == nil || c == nil {
		return nil, fmt.Errorf("sched: %w: workload, scheduler and cluster must be non-nil", ErrNilArgument)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := c.NumDevices()
	if opts.CheckpointDir != "" {
		opts.Checkpoint = true
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("sched: checkpoint dir: %w", err)
		}
	}
	resume := opts.ResumeFrom
	if resume != nil {
		if err := resume.validateFor(w.Name, s.Name(), len(w.Stages), n); err != nil {
			return nil, err
		}
		if err := resume.validateNumeric(opts); err != nil {
			return nil, err
		}
	}
	if opts.FaultPlan != nil {
		if err := opts.FaultPlan.Validate(n); err != nil {
			return nil, err
		}
	}
	if resume != nil {
		if err := c.Restore(resume.cluster); err != nil {
			return nil, err
		}
	} else {
		c.Reset()
		for _, d := range w.Inputs {
			c.RegisterHostTensor(d)
		}
	}
	ob := newObsRun(opts.Obs, s, w)
	if ob != nil {
		c.SetObserver(opts.Obs)
		defer c.SetObserver(nil)
	}
	var store *numericStore
	if opts.Numeric {
		var err error
		store, err = newNumericStore(ctx, w, opts)
		if err != nil {
			return nil, err
		}
		// Shut the worker pool down on every exit path so no goroutine
		// outlives the run (idempotent; finish() on success already did).
		defer store.shutdown()
	}
	sctx := &Context{
		Cluster:   c,
		NumGPU:    n,
		StageLoad: make([]int, n),
		Comp:      make([]float64, n),
		Obs:       opts.Obs,
		Down:      c.FailedMask(),
	}
	res := &Result{Scheduler: s.Name(), Workload: w.Name}
	e := &engine{ctx: ctx, w: w, s: s, c: c, opts: opts, ob: ob, sctx: sctx, store: store, res: res, n: n, clock0: time.Now()}
	e.prog = opts.Progress
	if opts.CheckpointDir != "" {
		e.ckptWrites = opts.Obs.Counter("micco_checkpoint_writes_total")
		e.ckptBytes = opts.Obs.Counter("micco_checkpoint_bytes_written_total")
	}
	if opts.FaultPlan != nil {
		e.fr = newFaultRun(opts.FaultPlan, resume, opts.Obs)
	}
	if opts.RecordAssignments {
		// One flat buffer backs every stage's assignment record, indexed
		// through per-stage offsets so recovery re-placements of earlier
		// pairs update their original slot in place.
		e.stageOffsets = make([]int, len(w.Stages)+1)
		for si := range w.Stages {
			e.stageOffsets[si+1] = e.stageOffsets[si] + len(w.Stages[si].Pairs)
		}
		e.assignAll = make([]int, e.stageOffsets[len(w.Stages)])
		for i := range e.assignAll {
			e.assignAll[i] = -1
		}
	}
	startStage := 0
	if resume != nil {
		startStage = resume.nextStage
		e.overhead = resume.overhead
		res.Recovery = resume.recovery
		if e.assignAll != nil && len(resume.assignments) == len(e.assignAll) {
			copy(e.assignAll, resume.assignments)
		}
		// Replay the completed prefix numerically: numeric state is a pure
		// function of the seed and the stream order, so re-executing it is
		// exactly equivalent to having checkpointed it, without snapshotting
		// tensor storage. (With a concurrent pool, exec is a queue no-op and
		// the pool re-runs the full stream on its own.) Stage boundaries are
		// flushed exactly as the original run flushed them, so the fused
		// serial engine replays the identical batched stream.
		if store != nil {
			for si := 0; si < startStage; si++ {
				for _, p := range w.Stages[si].Pairs {
					if err := store.exec(p); err != nil {
						return nil, err
					}
				}
				if err := store.flushStage(); err != nil {
					return nil, err
				}
			}
		}
	}
	if opts.Checkpoint {
		if err := e.snapshot(startStage); err != nil {
			return nil, err
		}
	}
	for si := startStage; si < len(w.Stages); si++ {
		st := &w.Stages[si]
		sctx.StageIndex = si
		sctx.BalanceNum = (st.NumTensors() + n - 1) / n
		for i := range sctx.StageLoad {
			sctx.StageLoad[i] = 0
		}
		sctx.Features = w.StageFeatures(si)
		var stageSpan *obs.ActiveSpan
		var simStart float64
		var stageT0 time.Duration
		e.scheduleW, e.simulateW, e.numericW = 0, 0, 0
		if ob != nil {
			stageSpan = ob.reg.StartSpan("stage", ob.runSpan)
			stageSpan.SetAttr("index", strconv.Itoa(si))
			stageSpan.SetAttr("pairs", strconv.Itoa(len(st.Pairs)))
			simStart = c.Makespan()
			stageT0 = time.Since(e.clock0)
		}
		t0 := time.Now()
		s.BeginStage(sctx)
		d0 := time.Since(t0)
		e.overhead += d0
		e.scheduleW += d0
		for pi := range st.Pairs {
			if err := ctx.Err(); err != nil {
				return e.fail(err)
			}
			if e.fr != nil {
				if err := e.fire(si, pi); err != nil {
					return e.fail(err)
				}
			}
			if err := e.placePair(si, pi, st.Pairs[pi], false); err != nil {
				return e.fail(err)
			}
		}
		if store != nil {
			// Fused serial engine: the stage's queued contractions execute
			// here as one batched call (shared operands packed once). A
			// no-op on the concurrent pool and when the stage queued nothing.
			t0 = time.Now()
			if err := store.flushStage(); err != nil {
				return e.fail(err)
			}
			e.numericW += time.Since(t0)
		}
		c.Barrier()
		if ob != nil {
			// Simulate time is attributed as the stage-wall remainder:
			// everything outside scheduler calls and numeric work is the
			// timing simulation plus the engine's own (tiny) loop
			// bookkeeping. Deriving it this way keeps the per-pair loop at
			// two clock reads — the same as the obs-off path.
			e.simulateW = time.Since(e.clock0) - stageT0 - e.scheduleW - e.numericW
			if e.simulateW < 0 {
				e.simulateW = 0
			}
			ob.schedule.Add(e.scheduleW.Seconds())
			ob.simulate.Add(e.simulateW.Seconds())
			ob.numeric.Add(e.numericW.Seconds())
			stageSpan.SetAttr("schedule_s", formatSeconds(e.scheduleW))
			stageSpan.SetAttr("simulate_s", formatSeconds(e.simulateW))
			stageSpan.SetAttr("numeric_s", formatSeconds(e.numericW))
			// Simulated-time stage window (full precision, round-trippable):
			// the report layer's per-stage utilization waterfall buckets
			// trace events by these boundaries.
			stageSpan.SetAttr("sim_start_s", strconv.FormatFloat(simStart, 'g', -1, 64))
			stageSpan.SetAttr("sim_end_s", strconv.FormatFloat(c.Makespan(), 'g', -1, 64))
			stageSpan.End()
		}
		if opts.Checkpoint {
			if err := e.snapshot(si + 1); err != nil {
				return e.fail(err)
			}
		}
	}
	res.Makespan = c.Makespan()
	res.GFLOPS = c.GFLOPS()
	res.SchedOverhead = e.overhead
	res.Total = c.TotalStats()
	res.PerDevice = make([]gpusim.DeviceStats, n)
	for i := 0; i < n; i++ {
		res.PerDevice[i] = c.Device(i).Stats()
	}
	if e.assignAll != nil {
		res.Assignments = make([][]int, len(w.Stages))
		for si := range w.Stages {
			res.Assignments[si] = e.assignAll[e.stageOffsets[si]:e.stageOffsets[si+1]:e.stageOffsets[si+1]]
		}
	}
	if store != nil {
		var t0 time.Time
		if ob != nil {
			t0 = time.Now()
		}
		if err := store.finish(); err != nil {
			return nil, err
		}
		if ob != nil {
			// Drain time: how long the engine waited for the numeric pool
			// after the last pair was scheduled (queue-wait tail).
			ob.reg.Counter("micco_engine_numeric_drain_seconds_total").Add(time.Since(t0).Seconds())
		}
		res.NumericFingerprint = store.fingerprint()
	}
	if opts.Checkpoint {
		res.Checkpoint = e.lastCP
	}
	ob.finish(res, c)
	return res, nil
}

// formatSeconds renders a wall duration as decimal seconds for span attrs.
func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', 6, 64)
}

// Speedup returns how much faster r is than baseline in throughput terms.
func Speedup(r, baseline *Result) float64 {
	if baseline.GFLOPS == 0 {
		return 0
	}
	return r.GFLOPS / baseline.GFLOPS
}
