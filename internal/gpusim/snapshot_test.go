package gpusim

import (
	"math/rand"
	"testing"

	"micco/internal/tensor"
)

// TestIncrementalSnapshotMatchesReference drives a cluster through a
// randomized walk of host registrations, discards, dirty write-backs
// (contractions and pool shrinks under scarce memory), host staging, node
// marks (multi-node fetches), device loss, restores and resets, and at
// every snapshot requires CheckpointInto — into one of two alternating,
// reused checkpoints — to equal the full collect-and-sort reference. It
// also requires the other checkpoint to still hold the state it captured,
// so a snapshot never writes into memory the cluster or an earlier
// snapshot owns, and that both the merge and the rebuild path ran.
func TestIncrementalSnapshotMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"MI100(4)", MI100(4)},
		{"MI100Nodes(2,4)", MI100Nodes(2, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := func(id uint64) tensor.Desc {
				return tensor.Desc{ID: id, Rank: tensor.RankMeson, Dim: 8, Batch: 1}
			}
			cfg := tc.cfg
			cfg.PeerFetch = false // stage through the host, so fetches mark host nodes
			cfg.MemoryBytes = 6 * d(1).Bytes()
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const nInputs = 64
			register := func() {
				for id := uint64(1); id <= nInputs; id++ {
					c.RegisterHostTensor(d(id))
				}
			}
			register()
			rng := rand.New(rand.NewSource(int64(7 + cfg.NumDevices)))
			nextID := uint64(nInputs + 1)
			available := func() (uint64, bool) {
				for try := 0; try < 16; try++ {
					id := uint64(1 + rng.Intn(int(nextID-1)))
					if c.HostHolds(id) || !c.HoldersMask(id).Empty() {
						return id, true
					}
				}
				return 0, false
			}
			alive := func() int {
				for {
					if dev := rng.Intn(cfg.NumDevices); !c.DeviceFailed(dev) {
						return dev
					}
				}
			}
			var bufs [2]*Checkpoint
			bufs[0], bufs[1] = new(Checkpoint), new(Checkpoint)
			var refs [2]*Checkpoint
			var saved []*Checkpoint
			cur, merges, rebuilds := 0, 0, 0
			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(40); {
				case op < 14: // contraction: staging, evictions, dirty write-backs
					a, okA := available()
					b, okB := available()
					if !okA || !okB {
						continue
					}
					out := nextID
					nextID++
					if _, err := c.ExecContraction(alive(), d(a), d(b), d(out)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				case op < 18: // staging, including onto another node
					if id, ok := available(); ok {
						if err := c.EnsureResident(alive(), d(id)); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				case op < 22: // discard, sometimes re-registered
					id := uint64(1 + rng.Intn(int(nextID-1)))
					c.Discard(id)
					if rng.Intn(2) == 0 {
						c.RegisterHostTensor(d(id))
					}
				case op < 23: // pool shrink and regrowth: forced write-backs
					dev := alive()
					if err := c.SetMemoryCapacity(dev, int64(3+rng.Intn(4))*d(1).Bytes()); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				case op < 24: // device loss, then back into service
					dev := rng.Intn(cfg.NumDevices)
					if c.DeviceFailed(dev) {
						if err := c.RestoreDevice(dev); err != nil {
							t.Fatal(err)
						}
					} else if c.AliveMask().Count() > 1 {
						if err := c.FailDevice(dev); err != nil {
							t.Fatal(err)
						}
					}
				case op < 36: // snapshot into the older of the two buffers
					if n, stale := c.HostLogPending(); stale {
						rebuilds++
					} else if n > 0 {
						merges++
					}
					c.CheckpointInto(bufs[cur])
					refs[cur] = c.ReferenceCheckpoint()
					if diff := CheckpointDiff(bufs[cur], refs[cur]); diff != "" {
						t.Fatalf("step %d: snapshot differs from reference: %s", step, diff)
					}
					if other := 1 - cur; refs[other] != nil {
						if diff := CheckpointDiff(bufs[other], refs[other]); diff != "" {
							t.Fatalf("step %d: earlier snapshot changed after capture: %s", step, diff)
						}
					}
					if rng.Intn(4) == 0 {
						saved = append(saved, refs[cur])
					}
					cur = 1 - cur
				case op < 39: // restore an earlier snapshot
					if len(saved) == 0 {
						continue
					}
					cp := saved[rng.Intn(len(saved))]
					if err := c.Restore(cp); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if diff := CheckpointDiff(c.ReferenceCheckpoint(), cp); diff != "" {
						t.Fatalf("step %d: restored state differs from its snapshot: %s", step, diff)
					}
				default: // full reset
					c.Reset()
					register()
				}
			}
			if merges == 0 || rebuilds == 0 {
				t.Fatalf("walk took %d merged and %d rebuilt snapshots; want both paths", merges, rebuilds)
			}
		})
	}
}

// TestCheckpointIntoAllocatesNothing pins a warmed CheckpointInto on a
// single-node cluster at zero allocations, with one stage's worth of host
// entries discarded and registered again before each snapshot.
func TestCheckpointIntoAllocatesNothing(t *testing.T) {
	c, err := NewCluster(MI100(4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	for id := uint64(0); id < n; id++ {
		c.RegisterHostTensor(desc(id, 16, 2))
	}
	for i := 0; i < 64; i++ {
		if _, err := c.ExecContraction(i%4, desc(uint64(i), 16, 2), desc(uint64(i+1), 16, 2), desc(n+uint64(i), 16, 2)); err != nil {
			t.Fatal(err)
		}
	}
	dst := new(Checkpoint)
	next := uint64(0)
	stage := func() {
		for k := 0; k < 256; k++ {
			id := next % n
			next += 13
			c.Discard(id)
			c.RegisterHostTensor(desc(id, 16, 2))
		}
		c.CheckpointInto(dst)
	}
	for i := 0; i < 4; i++ {
		stage()
	}
	if allocs := testing.AllocsPerRun(50, stage); allocs != 0 {
		t.Fatalf("warmed CheckpointInto allocates %v times per stage, want 0", allocs)
	}
	if diff := CheckpointDiff(dst, c.ReferenceCheckpoint()); diff != "" {
		t.Fatalf("snapshot differs from reference: %s", diff)
	}
}

// TestCheckpointRejectsUnsortedHost: a decoded snapshot whose host IDs are
// out of order or repeated fails Validate, and Restore refuses it too:
// restoring it would keep only the last of two entries for one ID, so the
// restored cluster would no longer match the file it came from.
func TestCheckpointRejectsUnsortedHost(t *testing.T) {
	c, err := NewCluster(MI100(2))
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterHostTensor(desc(5, 4, 1))
	c.RegisterHostTensor(desc(9, 4, 1))
	good := c.Checkpoint()
	if err := good.Validate(); err != nil {
		t.Fatalf("real snapshot rejected: %v", err)
	}
	for name, host := range map[string][]HostState{
		"descending": {{Desc: desc(9, 4, 1)}, {Desc: desc(5, 4, 1)}},
		"duplicate":  {{Desc: desc(9, 4, 1)}, {Desc: desc(5, 4, 1)}, {Desc: desc(5, 64, 8)}},
		"repeated":   {{Desc: desc(5, 4, 1)}, {Desc: desc(5, 64, 8)}, {Desc: desc(9, 4, 1)}},
	} {
		cp := c.Checkpoint()
		cp.Host = host
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted host IDs out of order", name)
		}
		if err := c.Restore(cp); err == nil {
			t.Errorf("%s: Restore accepted host IDs out of order", name)
		}
	}
	if err := c.Restore(good); err != nil {
		t.Fatalf("restoring the real snapshot after the rejections: %v", err)
	}
	if diff := CheckpointDiff(c.Checkpoint(), good); diff != "" {
		t.Fatalf("restored snapshot differs: %s", diff)
	}
}
