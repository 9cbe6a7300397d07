package sched

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"micco/internal/gpusim"
	"micco/internal/tensor"
)

// Durable checkpoint encoding.
//
// A sched.Checkpoint is an in-process handle; this file gives it an
// on-disk form so a run can survive the death of the process that took
// it. The layout is a fixed little-endian header followed by a binary
// payload:
//
//	offset  size  field
//	0       4     magic "MCCK"
//	4       4     format version (uint32, currently 2)
//	8       4     CRC32 (IEEE) of the payload
//	12      8     payload length in bytes (uint64)
//	20      -     payload
//
// The payload is every field of the checkpoint in one fixed order, with
// no tags and no padding. Counts, integers and tensor.Desc fields are
// varints (unsigned for counts and tensor IDs, zigzag for signed
// values, always in their shortest form); float64 values — clocks,
// times, the link factor — are their raw IEEE bits, 8 bytes little
// endian, so they round-trip bit for bit; a bool is one byte, 0 or 1; a
// string is its byte count and its bytes; a slice is its count and its
// elements, and an empty slice decodes as nil. In order:
//
//	workload, scheduler                     string
//	num_devices, next_stage, overhead_ns    varint
//	numeric                                 bool
//	numeric_seed                            varint
//	fast_kernels                            bool
//	recovery: faults_injected, devices_lost, devices_restored,
//	  pairs_rescheduled, transient_retries  varint
//	  backoff_sim_seconds                   float64
//	  fault_charges                         stats
//	assignments                             count, varint each
//	faults_fired                            count, bool each
//	cluster: link_clocks, p2p_clocks        count, float64 each
//	  inter_clock                           float64
//	  inter_bytes                           varint
//	  link_factor                           float64
//	  transient_left                        varint
//	  host                                  count, then per tensor:
//	    desc, nodes (count, varint each)
//	  devices                               count, then per device:
//	    clock, copy_clock                   float64
//	    mem_peak, capacity                  varint
//	    failed                              bool
//	    stats
//	    resident                            count, then per block in
//	      LRU order: desc, dirty (bool), ready_at (float64)
//
// where desc is id (uvarint), rank, dim, batch (varint) and stats is
// kernel_time, transfer_time, evict_time, alloc_time (float64), then
// h2d_bytes, p2p_bytes, d2h_bytes, kernels, evictions, reuse_hits,
// cold_misses, flops (varint).
//
// The header is checked before any of the payload is parsed. Decoding
// never trusts the input: a bad magic, length, CRC or payload yields
// ErrCheckpointCorrupt, any other version yields ErrCheckpointVersion,
// every count is bounded by the bytes that remain, trailing bytes are
// rejected, and the embedded cluster snapshot is structurally validated
// before it can reach a cluster. Writes are atomic: temp file in the
// destination directory, fsync, rename, directory fsync.

// checkpointMagic opens every durable checkpoint file.
var checkpointMagic = [4]byte{'M', 'C', 'C', 'K'}

// CheckpointVersion is the current durable format version. Version 1
// (a JSON payload) is not read: its files get ErrCheckpointVersion.
const CheckpointVersion = 2

// checkpointHeaderSize is the fixed header ahead of the payload.
const checkpointHeaderSize = 20

// maxCheckpointPayload bounds the declared payload length; anything
// larger is corruption (a real snapshot of even a 4096-device cluster is
// far below this).
const maxCheckpointPayload = 1 << 30

// ErrCheckpointCorrupt marks a durable checkpoint that failed structural
// validation: bad magic, impossible length, CRC mismatch, truncation, or
// a payload that does not decode to a valid snapshot.
var ErrCheckpointCorrupt = errors.New("sched: checkpoint corrupt")

// ErrCheckpointVersion marks a durable checkpoint written by a format
// version this build does not understand.
var ErrCheckpointVersion = errors.New("sched: checkpoint version unsupported")

// EncodeCheckpoint writes cp to w in the durable format, returning the
// number of bytes written.
func EncodeCheckpoint(w io.Writer, cp *Checkpoint) (int, error) {
	buf, err := appendCheckpoint(nil, cp)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// appendCheckpoint appends cp's durable encoding, header and payload, to
// dst. The engine passes the buffer of its previous write, so a run's
// stage-boundary writes stop allocating once the buffer has grown.
func appendCheckpoint(dst []byte, cp *Checkpoint) ([]byte, error) {
	if cp == nil || cp.cluster == nil {
		return dst, fmt.Errorf("sched: %w: checkpoint", ErrNilArgument)
	}
	start := len(dst)
	pw := payloadWriter{buf: append(dst, make([]byte, checkpointHeaderSize)...)}
	pw.checkpoint(cp)
	buf := pw.buf
	hdr, payload := buf[start:start+checkpointHeaderSize], buf[start+checkpointHeaderSize:]
	copy(hdr[0:4], checkpointMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], CheckpointVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	return buf, nil
}

// DecodeCheckpoint reads one durable checkpoint from r. Corruption of any
// kind — truncation, bit flips, garbage — returns an error wrapping
// ErrCheckpointCorrupt; any format version but the current one returns
// one wrapping ErrCheckpointVersion. It never panics on malformed input.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var hdr [checkpointHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	if !bytes.Equal(hdr[0:4], checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != CheckpointVersion {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrCheckpointVersion, v, CheckpointVersion)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
	length := binary.LittleEndian.Uint64(hdr[12:20])
	if length == 0 || length > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: payload length %d out of range", ErrCheckpointCorrupt, length)
	}
	// ReadAll over a LimitReader grows with the data actually present, so
	// a corrupt length field cannot force a giant up-front allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrCheckpointCorrupt, err)
	}
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCheckpointCorrupt, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCheckpointCorrupt, wantCRC, got)
	}
	pr := payloadReader{buf: payload}
	cp := pr.checkpoint()
	if pr.err == nil && pr.pos != len(payload) {
		pr.fail("%d trailing bytes", len(payload)-pr.pos)
	}
	if pr.err != nil {
		return nil, pr.err
	}
	if cp.workload == "" {
		return nil, fmt.Errorf("%w: empty workload name", ErrCheckpointCorrupt)
	}
	if cp.nextStage < 0 {
		return nil, fmt.Errorf("%w: negative next stage %d", ErrCheckpointCorrupt, cp.nextStage)
	}
	if err := cp.cluster.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointCorrupt, err)
	}
	if cp.numDevices != len(cp.cluster.Devices) {
		return nil, fmt.Errorf("%w: header says %d devices, cluster snapshot has %d",
			ErrCheckpointCorrupt, cp.numDevices, len(cp.cluster.Devices))
	}
	return cp, nil
}

// payloadWriter appends payload fields to buf.
type payloadWriter struct {
	buf []byte
}

func (w *payloadWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// varint writes v zigzag-encoded.
func (w *payloadWriter) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *payloadWriter) float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *payloadWriter) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *payloadWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *payloadWriter) desc(d tensor.Desc) {
	w.uvarint(d.ID)
	w.varint(int64(d.Rank))
	w.varint(int64(d.Dim))
	w.varint(int64(d.Batch))
}

func (w *payloadWriter) stats(s gpusim.DeviceStats) {
	for _, f := range [...]float64{s.KernelTime, s.TransferTime, s.EvictTime, s.AllocTime} {
		w.float(f)
	}
	for _, n := range [...]int64{s.H2DBytes, s.P2PBytes, s.D2HBytes, s.Kernels, s.Evictions, s.ReuseHits, s.ColdMisses, s.FLOPs} {
		w.varint(n)
	}
}

// checkpoint writes the whole payload in the order the file comment
// lists.
func (w *payloadWriter) checkpoint(cp *Checkpoint) {
	w.string(cp.workload)
	w.string(cp.scheduler)
	w.varint(int64(cp.numDevices))
	w.varint(int64(cp.nextStage))
	w.varint(int64(cp.overhead))
	w.bool(cp.numeric)
	w.varint(cp.numericSeed)
	w.bool(cp.fastKernels)
	rec := &cp.recovery
	for _, n := range [...]int{rec.FaultsInjected, rec.DevicesLost, rec.DevicesRestored, rec.PairsRescheduled, rec.TransientRetries} {
		w.varint(int64(n))
	}
	w.float(rec.BackoffSimSeconds)
	w.stats(rec.FaultCharges)
	w.uvarint(uint64(len(cp.assignments)))
	for _, d := range cp.assignments {
		w.varint(int64(d))
	}
	w.uvarint(uint64(len(cp.faultsFired)))
	for _, f := range cp.faultsFired {
		w.bool(f)
	}

	cl := cp.cluster
	for _, clocks := range [...][]float64{cl.LinkClocks, cl.P2PClocks} {
		w.uvarint(uint64(len(clocks)))
		for _, c := range clocks {
			w.float(c)
		}
	}
	w.float(cl.InterClock)
	w.varint(cl.InterBytes)
	w.float(cl.LinkFactor)
	w.varint(int64(cl.TransientLeft))
	w.uvarint(uint64(len(cl.Host)))
	for i := range cl.Host {
		hs := &cl.Host[i]
		w.desc(hs.Desc)
		w.uvarint(uint64(len(hs.Nodes)))
		for _, n := range hs.Nodes {
			w.varint(int64(n))
		}
	}
	w.uvarint(uint64(len(cl.Devices)))
	for i := range cl.Devices {
		ds := &cl.Devices[i]
		w.float(ds.Clock)
		w.float(ds.CopyClock)
		w.varint(ds.MemPeak)
		w.varint(ds.Capacity)
		w.bool(ds.Failed)
		w.stats(ds.Stats)
		w.uvarint(uint64(len(ds.Resident)))
		for _, bs := range ds.Resident {
			w.desc(bs.Desc)
			w.bool(bs.Dirty)
			w.float(bs.ReadyAt)
		}
	}
}

// Minimum encoded sizes, which bound each decoded count by the bytes
// that remain.
const (
	minDescSize   = 4                              // four one-byte varints
	minStatsSize  = 4*8 + 8                        // four floats, eight varints
	minDeviceSize = 2*8 + 2 + 1 + minStatsSize + 1 // clocks, memory, failed, stats, resident count
	minBlockSize  = minDescSize + 1 + 8            // desc, dirty, ready_at
	minHostSize   = minDescSize + 1                // desc, node count
)

// payloadReader consumes payload fields from buf, starting at pos. The
// first malformed field records err, wrapping ErrCheckpointCorrupt; every
// later read then returns a zero value, so the caller checks err once at
// the end. Calls in a composite literal run in lexical left-to-right
// order, so the literals below read fields in the order written.
type payloadReader struct {
	buf []byte
	pos int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: payload: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
	}
	r.pos = len(r.buf)
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("truncated or overflowing varint at byte %d", r.pos)
		return 0
	}
	// Only the shortest form is accepted, so every accepted payload
	// re-encodes to the same bytes.
	if n > 1 && r.buf[r.pos+n-1] == 0 {
		r.fail("varint at byte %d not in shortest form", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *payloadReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *payloadReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *payloadReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail("truncated float at byte %d", r.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v
}

func (r *payloadReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos == len(r.buf) || r.buf[r.pos] > 1 {
		r.fail("bool at byte %d missing or not 0 or 1", r.pos)
		return false
	}
	r.pos++
	return r.buf[r.pos-1] == 1
}

// count reads a slice length and rejects one whose elements, at minSize
// bytes each, could not fit in the bytes that remain.
func (r *payloadReader) count(minSize int) int {
	n := r.uvarint()
	if left := len(r.buf) - r.pos; n > uint64(left/minSize) {
		r.fail("count %d exceeds the %d bytes that remain", n, left)
		return 0
	}
	return int(n)
}

func (r *payloadReader) string() string {
	n := r.count(1)
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

func (r *payloadReader) desc() tensor.Desc {
	return tensor.Desc{ID: r.uvarint(), Rank: r.int(), Dim: r.int(), Batch: r.int()}
}

func (r *payloadReader) stats() gpusim.DeviceStats {
	return gpusim.DeviceStats{
		KernelTime: r.float(), TransferTime: r.float(), EvictTime: r.float(), AllocTime: r.float(),
		H2DBytes: r.varint(), P2PBytes: r.varint(), D2HBytes: r.varint(), Kernels: r.varint(),
		Evictions: r.varint(), ReuseHits: r.varint(), ColdMisses: r.varint(), FLOPs: r.varint(),
	}
}

func (r *payloadReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

// checkpoint reads the whole payload in the order payloadWriter wrote
// it. The result is meaningful only when r.err is nil.
func (r *payloadReader) checkpoint() *Checkpoint {
	cp := &Checkpoint{
		workload:   r.string(),
		scheduler:  r.string(),
		numDevices: r.int(),
		nextStage:  r.int(),
		overhead:   time.Duration(r.varint()),
	}
	cp.numeric = r.bool()
	cp.numericSeed = r.varint()
	cp.fastKernels = r.bool()
	cp.recovery = RecoveryStats{
		FaultsInjected: r.int(), DevicesLost: r.int(), DevicesRestored: r.int(),
		PairsRescheduled: r.int(), TransientRetries: r.int(),
		BackoffSimSeconds: r.float(), FaultCharges: r.stats(),
	}
	if n := r.count(1); n > 0 {
		cp.assignments = make([]int, n)
		for i := range cp.assignments {
			cp.assignments[i] = r.int()
		}
	}
	if n := r.count(1); n > 0 {
		cp.faultsFired = make([]bool, n)
		for i := range cp.faultsFired {
			cp.faultsFired[i] = r.bool()
		}
	}

	cl := &gpusim.Checkpoint{LinkClocks: r.floats(), P2PClocks: r.floats()}
	cl.InterClock = r.float()
	cl.InterBytes = r.varint()
	cl.LinkFactor = r.float()
	cl.TransientLeft = r.int()
	if n := r.count(minHostSize); n > 0 {
		cl.Host = make([]gpusim.HostState, n)
		for i := range cl.Host {
			hs := &cl.Host[i]
			hs.Desc = r.desc()
			if m := r.count(1); m > 0 {
				hs.Nodes = make([]int, m)
				for j := range hs.Nodes {
					hs.Nodes[j] = r.int()
				}
			}
		}
	}
	if n := r.count(minDeviceSize); n > 0 {
		cl.Devices = make([]gpusim.DeviceState, n)
		for i := range cl.Devices {
			ds := &cl.Devices[i]
			ds.Clock = r.float()
			ds.CopyClock = r.float()
			ds.MemPeak = r.varint()
			ds.Capacity = r.varint()
			ds.Failed = r.bool()
			ds.Stats = r.stats()
			if m := r.count(minBlockSize); m > 0 {
				ds.Resident = make([]gpusim.BlockState, m)
				for j := range ds.Resident {
					bs := &ds.Resident[j]
					bs.Desc = r.desc()
					bs.Dirty = r.bool()
					bs.ReadyAt = r.float()
				}
			}
		}
	}
	cp.cluster = cl
	return cp
}

// Cluster returns the checkpoint's cluster snapshot, for supervisors that
// repair it (ReviveDevices) before resuming.
func (cp *Checkpoint) Cluster() *gpusim.Checkpoint { return cp.cluster }

// CheckpointPath returns the canonical durable-checkpoint path for a
// workload inside dir: the workload name with every byte outside
// [A-Za-z0-9._-] replaced by '_', plus the ".mcck" extension. The engine
// and the supervisor both derive the path this way, so they always agree.
func CheckpointPath(dir, workload string) string {
	name := []byte(workload)
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			name[i] = '_'
		}
	}
	if len(name) == 0 {
		name = []byte("run")
	}
	return filepath.Join(dir, string(name)+".mcck")
}

// SaveCheckpointFile atomically persists cp at path: the encoding is
// written to a temp file in the same directory, fsynced, renamed over
// path, and the directory is fsynced so the rename itself is durable. On
// error the destination is untouched (a reader never observes a partial
// file). Returns the encoded size in bytes.
func SaveCheckpointFile(path string, cp *Checkpoint) (int, error) {
	buf, err := appendCheckpoint(nil, cp)
	if err != nil {
		return 0, err
	}
	if err := writeFileAtomic(path, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// writeFileAtomic replaces path with data the way SaveCheckpointFile
// describes.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpointFile reads and validates a durable checkpoint from path.
// Decode failures carry ErrCheckpointCorrupt / ErrCheckpointVersion; a
// missing file surfaces as the usual fs.ErrNotExist.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
