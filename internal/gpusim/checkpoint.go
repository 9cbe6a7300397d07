package gpusim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"micco/internal/tensor"
)

// BlockState is the serializable state of one resident block.
type BlockState struct {
	Desc    tensor.Desc
	Dirty   bool
	ReadyAt float64
}

// DeviceState is the serializable state of one device: clocks, counters,
// capacity override, failure flag, and the resident set in LRU order
// (least recently used first, so replaying installs reproduces the
// eviction order exactly).
type DeviceState struct {
	Clock     float64
	CopyClock float64
	MemPeak   int64
	Capacity  int64 // capOverride; 0 = configured capacity
	Failed    bool
	Stats     DeviceStats
	Resident  []BlockState
}

// HostState is one host-resident tensor and, on multi-node clusters, the
// nodes whose host partition holds the copy (nil on single-node clusters,
// where host memory is one pool).
type HostState struct {
	Desc  tensor.Desc
	Nodes []int
}

// Checkpoint is a full snapshot of cluster simulation state, sufficient to
// continue a run with bit-identical timing. Pinned flags are not captured:
// checkpoints are only taken at stage barriers, where no operation is in
// flight and nothing is pinned.
type Checkpoint struct {
	// LinkClocks and P2PClocks hold each node's host-link and P2P-fabric
	// availability times (one entry on single-node clusters).
	LinkClocks []float64
	P2PClocks  []float64
	// InterClock and InterBytes snapshot the inter-node interconnect.
	InterClock    float64
	InterBytes    int64
	LinkFactor    float64 // bwFactor; 0 = undegraded
	TransientLeft int
	// Host lists host-resident tensors with their node presence, in
	// strictly ascending ID order (Validate and Restore reject any other).
	Host    []HostState
	Devices []DeviceState
}

// Validate sanity-checks a checkpoint that arrived from outside the
// process (a decoded durable file): structural invariants only, the
// checks Restore's topology comparison cannot express. It cannot prove
// the snapshot came from a real run — CRC integrity upstream covers
// corruption — but it rejects decoded garbage before it reaches a
// cluster.
func (cp *Checkpoint) Validate() error {
	if cp == nil {
		return fmt.Errorf("gpusim: %w: checkpoint", ErrNilArgument)
	}
	if len(cp.Devices) == 0 {
		return fmt.Errorf("gpusim: checkpoint has no devices")
	}
	if len(cp.LinkClocks) != len(cp.P2PClocks) {
		return fmt.Errorf("gpusim: checkpoint link/p2p clock counts differ (%d vs %d)",
			len(cp.LinkClocks), len(cp.P2PClocks))
	}
	for n := range cp.LinkClocks {
		if !nonNegFinite(cp.LinkClocks[n]) || !nonNegFinite(cp.P2PClocks[n]) {
			return fmt.Errorf("gpusim: checkpoint node %d has a negative or non-finite link clock", n)
		}
	}
	if !nonNegFinite(cp.InterClock) {
		return fmt.Errorf("gpusim: checkpoint interconnect clock %v negative or non-finite", cp.InterClock)
	}
	if !nonNegFinite(cp.LinkFactor) {
		return fmt.Errorf("gpusim: checkpoint link factor %v negative or non-finite", cp.LinkFactor)
	}
	if cp.TransientLeft < 0 {
		return fmt.Errorf("gpusim: checkpoint transient budget %d negative", cp.TransientLeft)
	}
	for _, hs := range cp.Host {
		if !hs.Desc.Valid() {
			return fmt.Errorf("gpusim: checkpoint host tensor %v invalid", hs.Desc)
		}
	}
	if err := cp.checkHost(len(cp.LinkClocks)); err != nil {
		return err
	}
	for i, ds := range cp.Devices {
		if !nonNegFinite(ds.Clock) || !nonNegFinite(ds.CopyClock) {
			return fmt.Errorf("gpusim: checkpoint device %d has negative or non-finite clocks", i)
		}
		if ds.MemPeak < 0 || ds.Capacity < 0 {
			return fmt.Errorf("gpusim: checkpoint device %d has negative memory fields", i)
		}
		seen := make(map[uint64]bool, len(ds.Resident))
		for _, bs := range ds.Resident {
			if !bs.Desc.Valid() {
				return fmt.Errorf("gpusim: checkpoint device %d resident tensor %v invalid", i, bs.Desc)
			}
			if !nonNegFinite(bs.ReadyAt) {
				return fmt.Errorf("gpusim: checkpoint device %d tensor %d ready time %v negative or non-finite", i, bs.Desc.ID, bs.ReadyAt)
			}
			if seen[bs.Desc.ID] {
				return fmt.Errorf("gpusim: checkpoint device %d holds tensor %d twice", i, bs.Desc.ID)
			}
			seen[bs.Desc.ID] = true
		}
	}
	return nil
}

// nonNegFinite reports whether v is finite and not negative, as every
// simulated time and the link factor must be.
func nonNegFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// checkHost rejects host entries whose IDs are not strictly ascending and
// host node indices outside [0, numNodes). A repeated ID would let Restore
// keep only its last entry, so the restored cluster would no longer match
// the file; and the cluster's sorted host registry is seeded from the list
// as it stands. Restore grows a node set to hold each index, so one huge
// index is enough to exhaust memory.
func (cp *Checkpoint) checkHost(numNodes int) error {
	for i, hs := range cp.Host {
		if i > 0 && hs.Desc.ID <= cp.Host[i-1].Desc.ID {
			return fmt.Errorf("gpusim: checkpoint host entry %d (tensor %d) does not follow entry %d (tensor %d): host IDs must be strictly ascending",
				i, hs.Desc.ID, i-1, cp.Host[i-1].Desc.ID)
		}
		for _, n := range hs.Nodes {
			if n < 0 || n >= numNodes {
				return fmt.Errorf("gpusim: checkpoint host tensor %d on node %d, cluster has %d nodes", hs.Desc.ID, n, numNodes)
			}
		}
	}
	return nil
}

// Makespan returns the snapshot's simulated wall clock: the maximum
// device availability time, matching Cluster.Makespan at capture time.
func (cp *Checkpoint) Makespan() float64 {
	var m float64
	for _, ds := range cp.Devices {
		if ds.Clock > m {
			m = ds.Clock
		}
		if ds.CopyClock > m {
			m = ds.CopyClock
		}
	}
	return m
}

// ReviveDevices returns every failed device in the snapshot to service,
// mirroring Cluster.RestoreDevice: empty memory, clocks aligned to the
// snapshot makespan (the device rejoins at "now", not in the past).
// Supervisors use it to turn an ErrClusterLost checkpoint — every device
// down — back into a runnable one before resuming. Returns how many
// devices were revived.
func (cp *Checkpoint) ReviveDevices() int {
	m := cp.Makespan()
	n := 0
	for i := range cp.Devices {
		if !cp.Devices[i].Failed {
			continue
		}
		cp.Devices[i].Failed = false
		cp.Devices[i].Resident = nil
		cp.Devices[i].Clock = m
		cp.Devices[i].CopyClock = m
		n++
	}
	return n
}

// Checkpoint captures the cluster's complete simulation state into a new
// snapshot: CheckpointInto on a fresh Checkpoint.
func (c *Cluster) Checkpoint() *Checkpoint {
	cp := new(Checkpoint)
	c.CheckpointInto(cp)
	return cp
}

// CheckpointInto captures the cluster's complete simulation state into
// dst, overwriting every field. It reuses the capacity dst already has in
// LinkClocks, P2PClocks, Host (with each entry's Nodes) and Devices (with
// each Resident), so a caller that reuses its snapshot allocates
// nothing once the slices have grown. dst must be non-nil;
// the caller owns it, and nothing else may still be reading it, since its
// old contents are overwritten in place. The result shares no memory with
// the cluster. Intended at stage barriers (quiescent points with no
// pinned blocks).
//
// The cost of the host list is proportional to the host entries changed
// since the previous snapshot plus one copy of the list: the cluster keeps
// its host registry sorted between snapshots and merges in only the
// entries it logged as touched.
func (c *Cluster) CheckpointInto(dst *Checkpoint) {
	dst.LinkClocks = append(dst.LinkClocks[:0], c.linkClocks...)
	dst.P2PClocks = append(dst.P2PClocks[:0], c.p2pClocks...)
	dst.InterClock = c.interClock
	dst.InterBytes = c.interBytes
	dst.LinkFactor = c.bwFactor
	dst.TransientLeft = c.transientLeft
	c.syncHostRegistry()
	dst.Host = slices.Grow(dst.Host[:0], len(c.hostSorted))[:len(c.hostSorted)]
	for i, d := range c.hostSorted {
		hs := &dst.Host[i]
		hs.Desc = d
		if c.hostNodes != nil {
			hs.Nodes = c.hostNodes[d.ID].AppendTo(hs.Nodes[:0])
		} else {
			hs.Nodes = nil
		}
	}
	dst.Devices = slices.Grow(dst.Devices[:0], len(c.devices))[:len(c.devices)]
	for i, d := range c.devices {
		ds := &dst.Devices[i]
		res := slices.Grow(ds.Resident[:0], len(d.resident))
		for b := d.lruHead; b != nil; b = b.next {
			res = append(res, BlockState{Desc: b.desc, Dirty: b.dirty, ReadyAt: b.readyAt})
		}
		*ds = DeviceState{
			Clock:     d.clock,
			CopyClock: d.copyClock,
			MemPeak:   d.memPeak,
			Capacity:  d.capOverride,
			Failed:    d.failed,
			Stats:     d.stats,
			Resident:  res,
		}
	}
}

// syncHostRegistry brings hostSorted up to date with hostResident and
// empties the touched log: it sorts and dedupes the log and merges it into
// the sorted registry, reading the map only for touched IDs. After the log
// overflowed, every host ID is logged and merged into an empty registry.
func (c *Cluster) syncHostRegistry() {
	if c.hostStale {
		c.hostSorted = c.hostSorted[:0]
		c.hostTouched = c.hostTouched[:0]
		for id := range c.hostResident {
			c.hostTouched = append(c.hostTouched, id)
		}
		c.hostStale = false
	}
	if len(c.hostTouched) == 0 {
		return
	}
	slices.Sort(c.hostTouched)
	old, out := c.hostSorted, c.hostSpare[:0]
	i := 0
	for _, id := range slices.Compact(c.hostTouched) {
		// Copy the untouched run below id in one go, then skip id's old
		// entry (if any) and take its current one (if any).
		j, found := slices.BinarySearchFunc(old[i:], id, func(d tensor.Desc, id uint64) int { return cmp.Compare(d.ID, id) })
		out = append(out, old[i:i+j]...)
		i += j
		if found {
			i++
		}
		if d, ok := c.hostResident[id]; ok {
			out = append(out, d)
		}
	}
	c.hostSorted, c.hostSpare = append(out, old[i:]...), old
	c.hostTouched = c.hostTouched[:0]
}

// Restore replaces the cluster's simulation state with cp (taken from a
// cluster of the same topology). The restored cluster continues with
// bit-identical timing to the one that was checkpointed.
func (c *Cluster) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gpusim: %w: checkpoint", ErrNilArgument)
	}
	if len(cp.Devices) != len(c.devices) {
		return fmt.Errorf("gpusim: checkpoint has %d devices, cluster has %d", len(cp.Devices), len(c.devices))
	}
	if len(cp.LinkClocks) != c.numNodes || len(cp.P2PClocks) != c.numNodes {
		return fmt.Errorf("gpusim: checkpoint has %d/%d node link clocks, cluster has %d nodes",
			len(cp.LinkClocks), len(cp.P2PClocks), c.numNodes)
	}
	if err := cp.checkHost(c.numNodes); err != nil {
		return err
	}
	c.Reset()
	if len(cp.Host) > c.hostMapSize {
		// A fresh cluster's maps start empty; size them once instead of
		// growing them through every doubling.
		c.hostMapSize = len(cp.Host)
		c.hostResident = make(map[uint64]tensor.Desc, len(cp.Host))
		if c.hostNodes != nil {
			c.hostNodes = make(map[uint64]DevSet, len(cp.Host))
		}
	}
	copy(c.linkClocks, cp.LinkClocks)
	copy(c.p2pClocks, cp.P2PClocks)
	c.interClock = cp.InterClock
	c.interBytes = cp.InterBytes
	c.bwFactor = cp.LinkFactor
	c.transientLeft = cp.TransientLeft
	// cp.Host is ID-sorted and duplicate-free (checkHost), so it seeds
	// the sorted registry as it stands and the next snapshot merges only
	// what changes after this point.
	for _, hs := range cp.Host {
		c.hostResident[hs.Desc.ID] = hs.Desc
		c.hostSorted = append(c.hostSorted, hs.Desc)
		if c.hostNodes != nil {
			for _, n := range hs.Nodes {
				c.markHostOn(hs.Desc.ID, n)
			}
		}
	}
	for i, ds := range cp.Devices {
		d := c.devices[i]
		// Install in checkpoint (LRU) order so the rebuilt list evicts in
		// the same order the original would have; install also rebuilds
		// the residency index and memUsed as a side effect.
		for _, bs := range ds.Resident {
			b := d.install(bs.Desc, bs.Dirty)
			b.readyAt = bs.ReadyAt
		}
		// Overwrite what install perturbed, then the rest of the state.
		d.clock = ds.Clock
		d.copyClock = ds.CopyClock
		d.memPeak = ds.MemPeak
		d.capOverride = ds.Capacity
		d.failed = ds.Failed
		d.stats = ds.Stats
	}
	return nil
}
