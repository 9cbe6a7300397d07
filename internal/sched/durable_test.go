// Durable-checkpoint tests: encode/decode round trip, atomic file writes,
// typed rejection of corrupted/truncated/versioned files and of resumes
// from another run, the periodic write cadence with its obs counters, the
// decoder fuzz targets, and the codec's benchmark and allocation guard.
package sched_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// allLossPlan kills every one of n devices at stage st pair 1 — the
// unrecoverable scenario that makes the engine attach a checkpoint to the
// error.
func allLossPlan(n, st int) *fault.Plan {
	p := &fault.Plan{}
	for d := n - 1; d >= 0; d-- {
		p.Events = append(p.Events, fault.Event{Kind: fault.DeviceLoss, Device: d, Stage: st, Pair: 1})
	}
	return p
}

// durableCheckpoint produces a mid-run checkpoint with real content: a
// faulted, numeric, assignment-recording run killed by cluster loss.
func durableCheckpointT(t *testing.T) *sched.Checkpoint {
	t.Helper()
	w := numericWorkload(t, 7)
	c := newClusterT(t, 4)
	opts := sched.Options{
		Numeric: true, NumericSeed: 7, Checkpoint: true, RecordAssignments: true,
		FaultPlan: allLossPlan(4, 2),
	}
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, opts)
	if !errors.Is(err, sched.ErrClusterLost) {
		t.Fatalf("expected cluster loss, got %v", err)
	}
	if res == nil || res.Checkpoint == nil {
		t.Fatal("no checkpoint on failed run")
	}
	return res.Checkpoint
}

// TestCheckpointRoundTrip: encode → decode reproduces a checkpoint that
// resumes to the same fingerprint as the in-memory handle.
func TestCheckpointRoundTrip(t *testing.T) {
	cp := durableCheckpointT(t)
	var buf bytes.Buffer
	n, err := sched.EncodeCheckpoint(&buf, cp)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("EncodeCheckpoint reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := sched.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload() != cp.Workload() || got.Scheduler() != cp.Scheduler() || got.NextStage() != cp.NextStage() {
		t.Fatalf("round trip changed identity: %q/%q/%d vs %q/%q/%d",
			got.Workload(), got.Scheduler(), got.NextStage(), cp.Workload(), cp.Scheduler(), cp.NextStage())
	}

	// The decoded checkpoint must actually resume: same workload, fresh
	// cluster, fingerprints match the in-memory resume bit for bit.
	w := numericWorkload(t, 7)
	opts := sched.Options{Numeric: true, NumericSeed: 7, FaultPlan: allLossPlan(4, 2)}
	optsMem := opts
	optsMem.ResumeFrom = cp
	memRes, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), optsMem)
	if err != nil {
		t.Fatalf("in-memory resume: %v", err)
	}
	optsDisk := opts
	optsDisk.ResumeFrom = got
	diskRes, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), optsDisk)
	if err != nil {
		t.Fatalf("decoded resume: %v", err)
	}
	if memRes.NumericFingerprint != diskRes.NumericFingerprint {
		t.Fatalf("fingerprint drift across encode/decode: %x vs %x",
			memRes.NumericFingerprint, diskRes.NumericFingerprint)
	}
}

// TestCheckpointFileAtomicSave: SaveCheckpointFile leaves exactly the
// final file (no temp litter), and LoadCheckpointFile reads it back.
func TestCheckpointFileAtomicSave(t *testing.T) {
	cp := durableCheckpointT(t)
	dir := t.TempDir()
	path := sched.CheckpointPath(dir, cp.Workload())
	if _, err := sched.SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(dir, entries[0].Name()) != path {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	got, err := sched.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextStage() != cp.NextStage() {
		t.Fatalf("loaded NextStage %d, want %d", got.NextStage(), cp.NextStage())
	}
}

// TestCheckpointDecodeRejectsCorruption: every class of file damage must
// yield a typed error — never a panic, never a silently wrong checkpoint.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	cp := durableCheckpointT(t)
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, err := sched.DecodeCheckpoint(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("empty", nil, sched.ErrCheckpointCorrupt)
	check("short header", valid[:10], sched.ErrCheckpointCorrupt)
	check("truncated payload", valid[:len(valid)-7], sched.ErrCheckpointCorrupt)

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	check("bad magic", badMagic, sched.ErrCheckpointCorrupt)

	badVer := append([]byte(nil), valid...)
	badVer[4] = 99
	check("future version", badVer, sched.ErrCheckpointVersion)
	// A file in the old JSON format is refused as a version this build
	// does not read, never parsed.
	check("v1 file", frame(1, []byte(`{"workload":"w","num_devices":1,"cluster":{}}`)), sched.ErrCheckpointVersion)

	// A bit flip anywhere in the payload must trip the CRC.
	for _, off := range []int{20, len(valid) / 2, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		check("bit flip", flipped, sched.ErrCheckpointCorrupt)
	}

	// Valid framing around a payload that is not a checkpoint.
	payload := valid[20:]
	check("garbage payload", frame(sched.CheckpointVersion, []byte{0xff, 0xff}), sched.ErrCheckpointCorrupt)
	check("json payload", frame(sched.CheckpointVersion, []byte(`{"cluster":null}`)), sched.ErrCheckpointCorrupt)
	check("truncated fields", frame(sched.CheckpointVersion, payload[:len(payload)-1]), sched.ErrCheckpointCorrupt)
	check("trailing bytes", frame(sched.CheckpointVersion, append(append([]byte(nil), payload...), 0)), sched.ErrCheckpointCorrupt)
	// The workload name's length is the first varint; a huge one must be
	// bounded by the bytes that remain, not allocated.
	huge := binary.AppendUvarint(nil, 1<<62)
	check("oversized count", frame(sched.CheckpointVersion, append(huge, payload[1:]...)), sched.ErrCheckpointCorrupt)
	// The same value in a longer-than-shortest varint would re-encode to
	// different bytes.
	overlong := append([]byte{payload[0] | 0x80, 0}, payload[1:]...)
	check("overlong varint", frame(sched.CheckpointVersion, overlong), sched.ErrCheckpointCorrupt)
}

// frame wraps arbitrary payload bytes in a correct header (magic, the
// given version, CRC, length) so decode reaches the payload layer.
func frame(version uint32, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString("MCCK")
	buf.Write(binary.LittleEndian.AppendUint32(nil, version))
	buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload)))
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(payload))))
	buf.Write(payload)
	return buf.Bytes()
}

// TestCheckpointResumeRejectsMismatch: a decoded checkpoint from workload
// or shape X must not seed a run of Y, and numeric replay metadata
// (seed, kernel tier) and the scheduler must match the resuming run.
// Every rejection is ErrCheckpointMismatch.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	cp := durableCheckpointT(t)
	w := numericWorkload(t, 7)
	other := numericWorkload(t, 99)
	other.Name = "other"
	opts := sched.Options{Numeric: true, NumericSeed: 7, ResumeFrom: cp}
	badSeed := opts
	badSeed.NumericSeed = 8
	badTier := opts
	badTier.FastKernels = true
	rr := baseline.NewRoundRobin()
	for _, tc := range []struct {
		name string
		w    *workload.Workload
		s    sched.Scheduler
		n    int
		opts sched.Options
	}{
		{"different workload", other, rr, 4, opts},
		// A Groute run resumed from this RoundRobin checkpoint would
		// report RoundRobin's prefix under Groute's name.
		{"different scheduler", w, baseline.NewGroute(), 4, opts},
		{"different cluster shape", w, rr, 8, opts},
		{"different numeric seed", w, rr, 4, badSeed},
		{"different kernel tier", w, rr, 4, badTier},
	} {
		_, err := sched.Run(context.Background(), tc.w, tc.s, newClusterT(t, tc.n), tc.opts)
		if !errors.Is(err, sched.ErrCheckpointMismatch) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, sched.ErrCheckpointMismatch)
		}
	}
}

// TestCheckpointPeriodicWrites: CheckpointDir persists at the configured
// cadence, the obs counters reconcile exactly with the files written, and
// the final boundary is always durable.
func TestCheckpointPeriodicWrites(t *testing.T) {
	w := numericWorkload(t, 5) // 4 stages
	dir := t.TempDir()
	reg := obs.New()
	opts := sched.Options{
		Numeric: true, NumericSeed: 5,
		CheckpointDir: dir, CheckpointEvery: 3, Obs: reg,
	}
	res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), newClusterT(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries 0..4; every=3 writes at 0, 3, and the final 4.
	writes := reg.Counter("micco_checkpoint_writes_total").Value()
	if writes != 3 {
		t.Fatalf("writes counter = %v, want 3 (boundaries 0, 3, final)", writes)
	}
	path := sched.CheckpointPath(dir, w.Name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes counter counts cumulative encoded bytes; the last write is the
	// file on disk, and all three snapshots of this fault-free run differ
	// only in cursor/clock fields, so total ≈ 3 files — assert the exact
	// invariant instead: counter ≥ final file size, and a full-run
	// re-encode matches the file exactly.
	bytesWritten := reg.Counter("micco_checkpoint_bytes_written_total").Value()
	if bytesWritten < float64(fi.Size()) {
		t.Fatalf("bytes counter %v < final file size %d", bytesWritten, fi.Size())
	}
	var buf bytes.Buffer
	n, err := sched.EncodeCheckpoint(&buf, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != fi.Size() {
		t.Fatalf("final file is %d bytes, re-encoding the final checkpoint gives %d", fi.Size(), n)
	}
	// The durable file resumes instantly to the same fingerprint (a
	// completed checkpoint resumes past the last stage).
	loaded, err := sched.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextStage() != 4 {
		t.Fatalf("final checkpoint NextStage = %d, want 4", loaded.NextStage())
	}
}

// FuzzCheckpointDecode: the decoder must never panic and must return a
// typed error on every non-round-trippable input.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed corpus: one real encoding, plus its truncations and a bit flip,
	// plus raw garbage.
	cp := func() *sched.Checkpoint {
		w, err := workload.Generate(workload.Config{
			Seed: 7, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 2,
			Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Uniform,
		})
		if err != nil {
			f.Fatal(err)
		}
		c, err := gpusim.NewCluster(gpusim.MI100(4))
		if err != nil {
			f.Fatal(err)
		}
		res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, sched.Options{Checkpoint: true})
		if err != nil {
			f.Fatal(err)
		}
		return res.Checkpoint
	}()
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:19])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("MCCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := sched.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, sched.ErrCheckpointCorrupt) && !errors.Is(err, sched.ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Anything the decoder accepts must re-encode cleanly.
		if _, err := sched.EncodeCheckpoint(&bytes.Buffer{}, got); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
	})
}

// payloadSeedCheckpoints are the final checkpoints of three small runs
// that together fill every part of the payload: a single-node run; a
// multi-node run, whose host tensors carry node lists; and a faulted run
// that records assignments and has fired events.
func payloadSeedCheckpoints(tb testing.TB) []*sched.Checkpoint {
	tb.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 7, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.5, ChainRate: 0.5, Dist: workload.Uniform,
	})
	if err != nil {
		tb.Fatal(err)
	}
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.DeviceLoss, Device: 1, Stage: 1, Pair: 1},
		{Kind: fault.DeviceRestore, Device: 1, Stage: 2, Pair: 0},
	}}
	var cps []*sched.Checkpoint
	for _, run := range []struct {
		cfg  gpusim.Config
		opts sched.Options
	}{
		{gpusim.MI100(4), sched.Options{}},
		{gpusim.MI100Nodes(2, 2), sched.Options{}},
		{gpusim.MI100(4), sched.Options{FaultPlan: plan, RecordAssignments: true}},
	} {
		c, err := gpusim.NewCluster(run.cfg)
		if err != nil {
			tb.Fatal(err)
		}
		run.opts.Checkpoint = true
		res, err := sched.Run(context.Background(), w, baseline.NewRoundRobin(), c, run.opts)
		if err != nil {
			tb.Fatal(err)
		}
		cps = append(cps, res.Checkpoint)
		if run.opts.FaultPlan != nil && res.Recovery.FaultsInjected == 0 {
			tb.Fatal("faulted seed run fired no events")
		}
	}
	if host := cps[1].Cluster().Host; len(host) == 0 || host[0].Nodes == nil {
		tb.Fatal("multi-node seed run has no host node lists")
	}
	return cps
}

// FuzzCheckpointPayload reaches the payload decoder directly: the fuzz
// bytes get a correct header and CRC, so mutations are not all stopped by
// the CRC. Every input must give a typed error, or be accepted and
// re-encode to exactly the bytes that were decoded.
func FuzzCheckpointPayload(f *testing.F) {
	cps := payloadSeedCheckpoints(f)
	for _, cp := range cps {
		var buf bytes.Buffer
		if _, err := sched.EncodeCheckpoint(&buf, cp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[20:])
	}
	// A payload whose host list repeats an ID with a different shape: the
	// encoder writes what it is given, so it produces one if asked. The
	// decoder must reject it, or a resume would keep only the last entry.
	cl := cps[0].Cluster()
	host := cl.Host
	dup := cl.Host[0]
	dup.Desc.Dim, dup.Desc.Batch = 64, 8
	cl.Host = append([]gpusim.HostState{cl.Host[0], dup}, cl.Host[1:]...)
	var buf bytes.Buffer
	if _, err := sched.EncodeCheckpoint(&buf, cps[0]); err != nil {
		f.Fatal(err)
	}
	cl.Host = host
	if _, err := sched.DecodeCheckpoint(bytes.NewReader(buf.Bytes())); !errors.Is(err, sched.ErrCheckpointCorrupt) {
		f.Fatalf("payload with a duplicate host ID: %v, want ErrCheckpointCorrupt", err)
	}
	f.Add(buf.Bytes()[20:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := frame(sched.CheckpointVersion, payload)
		got, err := sched.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, sched.ErrCheckpointCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := sched.EncodeCheckpoint(&buf, got); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted payload re-encodes to different bytes (%d -> %d)", len(data), buf.Len())
		}
	})
}

// durableFaultsCheckpoint is the final checkpoint of a run shaped like
// perfbench's durable-faults workload: 40 stages of 256 pairs, dim 384,
// batch 8, on MI100(8) with pools at half the working set, under a
// generated survivable fault plan.
func durableFaultsCheckpoint(b *testing.B) *sched.Checkpoint {
	b.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: 40, VectorSize: 256, TensorDim: 384, Batch: 8,
		Rank: tensor.RankMeson, RepeatRate: 0.5, Dist: workload.Gaussian,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpusim.MI100(8)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 8 / 2
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan := fault.Generate(fault.GenConfig{Seed: 2022, Stages: 40, PairsPerStage: 256, Devices: 8, Events: 6})
	res, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{FaultPlan: plan, Checkpoint: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.Checkpoint
}

// BenchmarkCheckpoint times each step of a durable stage-boundary write
// and of the read that resumes it, on a durable-faults-sized checkpoint:
// the cluster snapshot, the encoding, the atomic file save (with fsync)
// and the file load (with decode and validation).
func BenchmarkCheckpoint(b *testing.B) {
	cp := durableFaultsCheckpoint(b)
	path := filepath.Join(b.TempDir(), "ck.mcck")
	size, err := sched.SaveCheckpointFile(path, cp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("snapshot", func(b *testing.B) {
		c, err := gpusim.NewCluster(gpusim.MI100(8))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Restore(cp.Cluster()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSnapshot = c.Checkpoint()
		}
	})
	// snapshot-stage is the in-run case: one stage's worth of host
	// entries (256) changes between snapshots, and the snapshot is
	// reused, as the engine reuses its own. /snapshot takes each snapshot of an unchanged
	// cluster into a new checkpoint.
	b.Run("snapshot-stage", func(b *testing.B) {
		c, err := gpusim.NewCluster(gpusim.MI100(8))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Restore(cp.Cluster()); err != nil {
			b.Fatal(err)
		}
		host := cp.Cluster().Host
		dst := new(gpusim.Checkpoint)
		next := 0
		stage := func() {
			for k := 0; k < 256; k++ {
				d := host[next%len(host)].Desc
				next += 61
				c.Discard(d.ID)
				c.RegisterHostTensor(d)
			}
			c.CheckpointInto(dst)
		}
		stage()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stage()
		}
		benchSnapshot = dst
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if _, err := sched.EncodeCheckpoint(io.Discard, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("save", func(b *testing.B) {
		dst := filepath.Join(b.TempDir(), "ck.mcck")
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if _, err := sched.SaveCheckpointFile(dst, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if _, err := sched.LoadCheckpointFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var benchSnapshot *gpusim.Checkpoint

// TestEncodeCheckpointAllocs pins the encoder's allocations on a small
// checkpoint: the payload buffer's growth steps and nothing per field.
func TestEncodeCheckpointAllocs(t *testing.T) {
	cp := durableCheckpointT(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sched.EncodeCheckpoint(io.Discard, cp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("EncodeCheckpoint allocates %v times per call, want at most 7", allocs)
	}
}
