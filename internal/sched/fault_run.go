package sched

import (
	"fmt"
	"strconv"
	"time"

	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
)

// RecoveryStats summarizes the fault-injection and recovery activity of
// one run; all fields are zero when no fault plan was attached.
type RecoveryStats struct {
	// FaultsInjected counts plan events that fired.
	FaultsInjected int
	// DevicesLost / DevicesRestored count device-loss / device-restore
	// events applied.
	DevicesLost     int
	DevicesRestored int
	// PairsRescheduled counts pairs re-executed on survivors because a
	// device loss destroyed their outputs (the recovery closure).
	PairsRescheduled int
	// TransientRetries counts retried operand fetches;
	// BackoffSimSeconds is the simulated time charged to backoff.
	TransientRetries  int
	BackoffSimSeconds float64
	// FaultCharges accumulates simulator work performed by fault events
	// themselves outside any placement (today: the evictions and dirty
	// write-backs of a mem-shrink). Summing DecisionRecord actuals plus
	// FaultCharges reconciles exactly with the run's DeviceStats totals.
	FaultCharges gpusim.DeviceStats
}

// Checkpoint is a stage-granular, in-memory snapshot of a run: the
// cluster's full simulation state at a stage barrier plus the engine
// bookkeeping needed to continue. Produce one with Options.Checkpoint
// (Result.Checkpoint); feed it back through Options.ResumeFrom on a fresh
// run over the same workload and cluster shape. Checkpoints are handles,
// not serialized artifacts: they are valid within the process that took
// them.
//
// A resumed run re-executes the numeric stream of completed stages from
// the same seed (numeric state is deterministic and cheap relative to
// holding every tensor), so Result.NumericFingerprint is bit-identical to
// an uninterrupted run under any Parallelism or NumericReclaim setting.
// Timing of the remaining stages is resumed exactly from the snapshot;
// placements may differ from the uninterrupted run when the scheduler
// carries internal state, which never affects the fingerprint.
type Checkpoint struct {
	workload   string
	scheduler  string
	numDevices int
	nextStage  int
	overhead   time.Duration
	recovery   RecoveryStats
	// assignments is the flat stage-major device-per-pair record (nil
	// unless the checkpointed run set RecordAssignments).
	assignments []int
	// faultsFired marks plan events that had already fired, so a resume
	// with the same plan does not re-fire them (in particular not the
	// loss that interrupted the run).
	faultsFired []bool
	cluster     *gpusim.Checkpoint
	// Numeric replay metadata: a resumed numeric run re-executes the
	// completed prefix from the seed, so the seed and kernel tier of the
	// original run must match the resuming options or the fingerprint
	// silently diverges. Recorded here so resume can reject the mismatch.
	numeric     bool
	numericSeed int64
	fastKernels bool
}

// NextStage returns the index of the first stage a resumed run will
// execute; it equals the workload's stage count for a completed run.
func (cp *Checkpoint) NextStage() int { return cp.nextStage }

// Workload returns the name of the workload the checkpoint was taken from.
func (cp *Checkpoint) Workload() string { return cp.workload }

// Scheduler returns the name of the scheduler that produced the
// checkpointed prefix.
func (cp *Checkpoint) Scheduler() string { return cp.scheduler }

// validateFor checks that the checkpoint can seed a resumed run of
// workload name under the named scheduler. Every mismatch wraps
// ErrCheckpointMismatch.
func (cp *Checkpoint) validateFor(name, scheduler string, stages, numDevices int) error {
	if cp.cluster == nil {
		return fmt.Errorf("sched: %w: checkpoint has no cluster snapshot", ErrNilArgument)
	}
	if cp.workload != name {
		return fmt.Errorf("sched: %w: checkpoint is for workload %q, resuming %q", ErrCheckpointMismatch, cp.workload, name)
	}
	if cp.scheduler != scheduler {
		return fmt.Errorf("sched: %w: checkpoint was written by scheduler %q, resuming under %q", ErrCheckpointMismatch, cp.scheduler, scheduler)
	}
	if cp.numDevices != numDevices {
		return fmt.Errorf("sched: %w: checkpoint is for %d devices, cluster has %d", ErrCheckpointMismatch, cp.numDevices, numDevices)
	}
	if cp.nextStage < 0 || cp.nextStage > stages {
		return fmt.Errorf("sched: %w: checkpoint resumes at stage %d of %d", ErrCheckpointMismatch, cp.nextStage, stages)
	}
	return nil
}

// validateNumeric rejects a resume whose numeric options cannot reproduce
// the checkpointed prefix: replaying from a different seed or kernel tier
// would produce a fingerprint unrelated to the original run's.
func (cp *Checkpoint) validateNumeric(o Options) error {
	if !cp.numeric || !o.Numeric {
		return nil
	}
	if cp.numericSeed != o.NumericSeed {
		return fmt.Errorf("sched: %w: checkpoint numeric seed %d, resuming with %d", ErrCheckpointMismatch, cp.numericSeed, o.NumericSeed)
	}
	if cp.fastKernels != o.FastKernels {
		return fmt.Errorf("sched: %w: checkpoint kernel tier (fast=%v) does not match resume options (fast=%v)",
			ErrCheckpointMismatch, cp.fastKernels, o.FastKernels)
	}
	return nil
}

// faultRun is the engine's live fault-injection state: the plan, which
// events have fired, the retry policy, and pre-resolved observability
// instruments (nil — and therefore no-ops — when observability is off).
type faultRun struct {
	plan  *fault.Plan
	fired []bool
	retry fault.Retry

	injected    map[fault.Kind]*obs.Counter
	rescheduled *obs.Counter
	retries     *obs.Counter
	backoff     *obs.Counter
}

func newFaultRun(p *fault.Plan, resume *Checkpoint, reg *obs.Registry) *faultRun {
	fr := &faultRun{plan: p, retry: p.RetryPolicy(), fired: make([]bool, len(p.Events))}
	if resume != nil && len(resume.faultsFired) == len(fr.fired) {
		copy(fr.fired, resume.faultsFired)
	}
	if reg != nil {
		fr.injected = make(map[fault.Kind]*obs.Counter)
		for _, k := range []fault.Kind{fault.DeviceLoss, fault.DeviceRestore, fault.LinkDegrade, fault.MemShrink, fault.TransientTransfer} {
			fr.injected[k] = reg.Counter(fmt.Sprintf("micco_fault_injected_total{kind=%q}", k))
		}
	}
	fr.rescheduled = reg.Counter("micco_fault_pairs_rescheduled_total")
	fr.retries = reg.Counter("micco_fault_transient_retries_total")
	fr.backoff = reg.Counter("micco_fault_backoff_sim_seconds_total")
	return fr
}

// due reports whether event ev should fire at the boundary before pair pi
// of stage si: time-triggered events fire once the makespan reaches their
// virtual time, positional events once the stream position reaches theirs
// (Pair -1 = stage start; positions in truncated or past stages fire at
// the next boundary).
func (fr *faultRun) due(ev fault.Event, si, pi int, c *gpusim.Cluster) bool {
	if ev.Time > 0 {
		return c.Makespan() >= ev.Time
	}
	return ev.Stage < si || (ev.Stage == si && ev.Pair <= pi)
}

// fire injects every unfired due event, in plan order, at the boundary
// before pair pi of stage si. Only called when a fault plan is attached.
func (e *engine) fire(si, pi int) error {
	fr := e.fr
	for i := range fr.plan.Events {
		ev := fr.plan.Events[i]
		if fr.fired[i] || !fr.due(ev, si, pi, e.c) {
			continue
		}
		fr.fired[i] = true
		e.res.Recovery.FaultsInjected++
		if fr.injected != nil {
			fr.injected[ev.Kind].Inc()
		}
		if err := e.apply(ev, si, pi); err != nil {
			return err
		}
	}
	return nil
}

// apply performs one fault event against the cluster and runs any recovery
// it requires.
func (e *engine) apply(ev fault.Event, si, pi int) error {
	switch ev.Kind {
	case fault.DeviceLoss:
		if e.c.DeviceFailed(ev.Device) {
			return nil
		}
		if err := e.c.FailDevice(ev.Device); err != nil {
			return err
		}
		e.sctx.Down = e.c.FailedMask()
		e.res.Recovery.DevicesLost++
		if e.c.AliveMask().Empty() {
			return fmt.Errorf("sched: stage %d pair %d: %w (device %d was the last survivor)",
				si, pi, ErrClusterLost, ev.Device)
		}
		return e.recoverFrom(si, pi, ev.Device)
	case fault.DeviceRestore:
		if err := e.c.RestoreDevice(ev.Device); err != nil {
			return err
		}
		e.sctx.Down = e.c.FailedMask()
		e.res.Recovery.DevicesRestored++
	case fault.LinkDegrade:
		return e.c.DegradeLink(ev.Factor)
	case fault.MemShrink:
		before := e.c.TotalStats()
		capacity := int64(ev.Factor * float64(e.c.Device(ev.Device).Profile().MemoryBytes))
		if err := e.c.SetMemoryCapacity(ev.Device, capacity); err != nil {
			return err
		}
		// Shrink-forced evictions and write-backs happen outside any
		// placement; charge them to the fault bucket so decision records
		// plus FaultCharges still reconcile with device totals.
		e.res.Recovery.FaultCharges.Add(e.c.TotalStats().Sub(before))
	case fault.TransientTransfer:
		e.c.InjectTransientFailures(ev.Failures)
	}
	return nil
}

// recoverFrom repairs the run after losing device lost at the boundary
// before pair pi of stage si. The loss destroyed every tensor whose only
// copy lived on the device; any such tensor still read by the remaining
// stream must be recomputed. The closure is built backward — starting from
// the operands of every remaining pair, a reverse scan over the executed
// prefix selects exactly the pairs whose outputs are both needed and gone,
// propagating operand needs as it selects — then re-executed forward (so
// recomputed producers precede their consumers) through the normal
// placement path: the scheduler chooses among survivors, decision records
// are emitted with Recovery set, and the re-runs are charged to simulated
// time. Numeric execution is NOT repeated for re-runs (the CPU-side result
// already exists), which is why fingerprints stay bit-identical to a
// fault-free run.
func (e *engine) recoverFrom(si, pi, lost int) error {
	// Freeze the flight recorder before repairs begin: the dump shows what
	// the cluster was doing when the device died, not the recovery traffic.
	e.dumpFlight(fmt.Sprintf("device-loss device=%d stage=%d pair=%d", lost, si, pi))
	var span *obs.ActiveSpan
	if e.ob != nil {
		span = e.ob.reg.StartSpan("recovery", e.ob.runSpan)
		span.SetAttr("device", strconv.Itoa(lost))
		span.SetAttr("stage", strconv.Itoa(si))
		span.SetAttr("pair", strconv.Itoa(pi))
	}
	// Needed set: every operand of the not-yet-executed remainder. The
	// engine keeps one set across recoveries, sized on first use for the
	// remainder's operands, so later recoveries do not regrow it.
	if e.needed == nil {
		remaining := len(e.w.Stages[si].Pairs) - pi
		for s2 := si + 1; s2 < len(e.w.Stages); s2++ {
			remaining += len(e.w.Stages[s2].Pairs)
		}
		e.needed = make(map[uint64]bool, 2*remaining)
	}
	needed := e.needed
	clear(needed)
	for s2 := si; s2 < len(e.w.Stages); s2++ {
		pairs := e.w.Stages[s2].Pairs
		start := 0
		if s2 == si {
			start = pi
		}
		for _, p := range pairs[start:] {
			needed[p.A.ID] = true
			needed[p.B.ID] = true
		}
	}
	// Reverse scan of the executed prefix: select pairs whose output is
	// needed but alive nowhere (no device copy, no host copy), and
	// propagate their operand needs so lost producers of lost producers
	// are selected too.
	type ref struct{ si, pi int }
	var selected []ref
	for s2 := si; s2 >= 0; s2-- {
		pairs := e.w.Stages[s2].Pairs
		end := len(pairs)
		if s2 == si {
			end = pi
		}
		for p2 := end - 1; p2 >= 0; p2-- {
			p := pairs[p2]
			if needed[p.Out.ID] && e.c.HoldersMask(p.Out.ID).Empty() && !e.c.HostHolds(p.Out.ID) {
				selected = append(selected, ref{s2, p2})
				needed[p.A.ID] = true
				needed[p.B.ID] = true
			}
		}
	}
	// Re-execute in original stream order (selected is reverse-ordered).
	for i := len(selected) - 1; i >= 0; i-- {
		r := selected[i]
		if err := e.placePair(r.si, r.pi, e.w.Stages[r.si].Pairs[r.pi], true); err != nil {
			return err
		}
	}
	e.res.Recovery.PairsRescheduled += len(selected)
	e.fr.rescheduled.Add(float64(len(selected)))
	if span != nil {
		span.SetAttr("pairs_rescheduled", strconv.Itoa(len(selected)))
		span.End()
	}
	return nil
}

// snapshot records a stage-boundary checkpoint (nextStage is the first
// stage a resume would execute) and, with Options.CheckpointDir set,
// persists it durably at the configured cadence: every boundary when
// CheckpointEvery <= 1, otherwise every CheckpointEvery stages plus
// always the final boundary. A durable-write failure is a run failure —
// the caller asked for durability and did not get it.
func (e *engine) snapshot(nextStage int) error {
	// Each boundary overwrites the previous snapshot in place, reusing its
	// storage. Nothing reads lastCP until the run ends or fails, and
	// CheckpointInto cannot fail part-way, so the previous boundary is
	// never needed once this one is taken. A ResumeFrom checkpoint is
	// never lastCP: the engine allocates its own on the first boundary.
	cp := e.lastCP
	if cp == nil {
		cp = &Checkpoint{cluster: new(gpusim.Checkpoint)}
	}
	cluster, assignments, faultsFired := cp.cluster, cp.assignments[:0], cp.faultsFired[:0]
	e.c.CheckpointInto(cluster)
	*cp = Checkpoint{
		workload:    e.w.Name,
		scheduler:   e.s.Name(),
		numDevices:  e.n,
		nextStage:   nextStage,
		overhead:    e.overhead,
		recovery:    e.res.Recovery,
		cluster:     cluster,
		numeric:     e.opts.Numeric,
		numericSeed: e.opts.NumericSeed,
		fastKernels: e.opts.FastKernels,
	}
	if e.assignAll != nil {
		cp.assignments = append(assignments, e.assignAll...)
	}
	if e.fr != nil {
		cp.faultsFired = append(faultsFired, e.fr.fired...)
	}
	e.lastCP = cp
	if e.opts.CheckpointDir == "" {
		return nil
	}
	if every := e.opts.CheckpointEvery; every > 1 && nextStage%every != 0 && nextStage != len(e.w.Stages) {
		return nil
	}
	buf, err := appendCheckpoint(e.ckptBuf[:0], cp)
	if err == nil {
		e.ckptBuf = buf
		err = writeFileAtomic(CheckpointPath(e.opts.CheckpointDir, e.w.Name), buf)
	}
	if err != nil {
		return fmt.Errorf("sched: durable checkpoint at stage %d: %w", nextStage, err)
	}
	e.ckptWrites.Inc()
	e.ckptBytes.Add(float64(len(buf)))
	return nil
}
