package gpusim_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// boundaryCheck wraps a scheduler to inspect every stage boundary of a
// run with durable checkpoints. The engine snapshots the cluster and
// writes the file just before it calls BeginStage, so at BeginStage the
// file holds that boundary's CheckpointInto output. check compares it,
// field for field, with the full collect-and-sort reference of the live
// cluster, and requires the file's bytes to equal the encoding of the
// same checkpoint carrying the reference snapshot.
type boundaryCheck struct {
	sched.Scheduler
	t    *testing.T
	path string
	// boundaries counts checked boundaries; merged counts those whose
	// snapshot merged a non-empty touched-host log rather than rebuilding
	// the registry (as seen at the stage's last placement).
	boundaries, merged int
	logLen             int
	logStale           bool
}

func (b *boundaryCheck) BeginStage(ctx *sched.Context) {
	b.check(ctx.Cluster, ctx.StageIndex)
	b.Scheduler.BeginStage(ctx)
}

func (b *boundaryCheck) Assign(p workload.Pair, ctx *sched.Context) int {
	b.logLen, b.logStale = ctx.Cluster.HostLogPending()
	return b.Scheduler.Assign(p, ctx)
}

func (b *boundaryCheck) check(c *gpusim.Cluster, nextStage int) {
	b.t.Helper()
	data, err := os.ReadFile(b.path)
	if err != nil {
		b.t.Fatal(err)
	}
	cp, err := sched.DecodeCheckpoint(bytes.NewReader(data))
	if err != nil {
		b.t.Fatal(err)
	}
	if cp.NextStage() != nextStage {
		b.t.Fatalf("file holds the boundary before stage %d, want %d", cp.NextStage(), nextStage)
	}
	ref := c.ReferenceCheckpoint()
	if diff := gpusim.CheckpointDiff(cp.Cluster(), ref); diff != "" {
		b.t.Fatalf("boundary before stage %d: snapshot differs from reference: %s", nextStage, diff)
	}
	*cp.Cluster() = *ref
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		b.t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		b.t.Fatalf("boundary before stage %d: file is not the reference snapshot's encoding", nextStage)
	}
	b.boundaries++
	if b.logLen > 0 && !b.logStale {
		b.merged++
	}
	b.logLen, b.logStale = 0, false
}

// TestStageSnapshotsMatchReference runs the engine with a durable
// checkpoint at every stage boundary and holds each one to the reference
// snapshot (see boundaryCheck), on a single-node and a two-node cluster,
// under a fault plan with device loss, recovery and a mem-shrink, with
// DiscardDeadInputs and NumericReclaim discards, across a resume through
// Restore after losing every device, and again on the same cluster after
// Run resets it. The final in-memory checkpoint is compared directly.
func TestStageSnapshotsMatchReference(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 31, Stages: 8, VectorSize: 32, TensorDim: 16, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.3, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	lossPlan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.MemShrink, Device: 0, Factor: 0.5, Stage: 1, Pair: 3},
		{Kind: fault.DeviceLoss, Device: 1, Stage: 2, Pair: 5},
		{Kind: fault.DeviceLoss, Device: 2, Stage: 4, Pair: 0},
		{Kind: fault.DeviceRestore, Device: 1, Stage: 5, Pair: 2},
	}}
	for _, topo := range []struct {
		name string
		cfg  gpusim.Config
	}{
		{"MI100(4)", gpusim.MI100(4)},
		{"MI100Nodes(2,4)", gpusim.MI100Nodes(2, 4)},
	} {
		cfg := topo.cfg
		cfg.MemoryBytes = w.TotalUniqueBytes() / int64(cfg.NumDevices) / 2
		allLoss := &fault.Plan{}
		for dev := 0; dev < cfg.NumDevices; dev++ {
			allLoss.Events = append(allLoss.Events, fault.Event{Kind: fault.DeviceLoss, Device: dev, Stage: 3, Pair: 4})
		}
		for _, arm := range []struct {
			name string
			opts sched.Options
		}{
			{"faulted", sched.Options{FaultPlan: lossPlan, RecordAssignments: true}},
			{"discard", sched.Options{DiscardDeadInputs: true, Numeric: true, NumericSeed: 5, NumericReclaim: true}},
		} {
			t.Run(topo.name+"/"+arm.name, func(t *testing.T) {
				c, err := gpusim.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				opts := arm.opts
				opts.CheckpointDir = t.TempDir()
				bc := &boundaryCheck{t: t, path: sched.CheckpointPath(opts.CheckpointDir, w.Name)}
				// Each run gets a fresh scheduler: MICCO carries state
				// between runs, and the rerun below must repeat the first.
				fresh := func() { bc.Scheduler = core.NewFixed(core.Bounds{0, 2, 0}) }
				run := func(opts sched.Options) *sched.Result {
					t.Helper()
					fresh()
					res, err := sched.Run(context.Background(), w, bc, c, opts)
					if err != nil {
						t.Fatal(err)
					}
					bc.check(c, len(w.Stages))
					if diff := gpusim.CheckpointDiff(res.Checkpoint.Cluster(), c.ReferenceCheckpoint()); diff != "" {
						t.Fatalf("final in-memory snapshot differs from reference: %s", diff)
					}
					return res
				}
				first := run(opts)
				if arm.opts.FaultPlan != nil && (first.Recovery.DevicesLost == 0 || first.Recovery.PairsRescheduled == 0) {
					t.Fatalf("plan lost %d devices and rescheduled %d pairs; want both", first.Recovery.DevicesLost, first.Recovery.PairsRescheduled)
				}
				// The same cluster again: Run resets it first.
				again := run(opts)
				if again.Makespan != first.Makespan {
					t.Fatalf("rerun on the reset cluster: makespan %v, first run %v", again.Makespan, first.Makespan)
				}
				// Lose every device mid-run, then resume on the same cluster
				// through Restore.
				lost := opts
				lost.FaultPlan = allLoss
				fresh()
				res, err := sched.Run(context.Background(), w, bc, c, lost)
				if !errors.Is(err, sched.ErrClusterLost) || res == nil || res.Checkpoint == nil {
					t.Fatalf("all-device loss: %v, want ErrClusterLost with a checkpoint", err)
				}
				res.Checkpoint.Cluster().ReviveDevices()
				var before, after bytes.Buffer
				if _, err := sched.EncodeCheckpoint(&before, res.Checkpoint); err != nil {
					t.Fatal(err)
				}
				resume := opts
				resume.FaultPlan = nil
				resume.ResumeFrom = res.Checkpoint
				run(resume)
				// The resumed run snapshots into its own storage, never into
				// the checkpoint it resumed from.
				if _, err := sched.EncodeCheckpoint(&after, res.Checkpoint); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before.Bytes(), after.Bytes()) {
					t.Fatal("resumed run wrote into its ResumeFrom checkpoint")
				}
				if bc.merged == 0 {
					t.Fatalf("none of %d boundaries merged a touched-host log", bc.boundaries)
				}
			})
		}
	}
}
