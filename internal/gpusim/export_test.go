package gpusim

import (
	"fmt"
	"slices"
)

// ReferenceCheckpoint snapshots the cluster the way Checkpoint did before
// the host registry became incremental: collect every host ID from the
// map, sort them all, read each entry back, and build every slice fresh.
// Tests hold CheckpointInto to it.
func (c *Cluster) ReferenceCheckpoint() *Checkpoint {
	cp := &Checkpoint{
		LinkClocks:    append([]float64(nil), c.linkClocks...),
		P2PClocks:     append([]float64(nil), c.p2pClocks...),
		InterClock:    c.interClock,
		InterBytes:    c.interBytes,
		LinkFactor:    c.bwFactor,
		TransientLeft: c.transientLeft,
		Host:          make([]HostState, 0, len(c.hostResident)),
		Devices:       make([]DeviceState, len(c.devices)),
	}
	ids := make([]uint64, 0, len(c.hostResident))
	for id := range c.hostResident {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		hs := HostState{Desc: c.hostResident[id]}
		if c.hostNodes != nil {
			hs.Nodes = c.hostNodes[id].AppendTo(nil)
		}
		cp.Host = append(cp.Host, hs)
	}
	for i, d := range c.devices {
		ds := DeviceState{
			Clock:     d.clock,
			CopyClock: d.copyClock,
			MemPeak:   d.memPeak,
			Capacity:  d.capOverride,
			Failed:    d.failed,
			Stats:     d.stats,
			Resident:  make([]BlockState, 0, len(d.resident)),
		}
		for b := d.lruHead; b != nil; b = b.next {
			ds.Resident = append(ds.Resident, BlockState{Desc: b.desc, Dirty: b.dirty, ReadyAt: b.readyAt})
		}
		cp.Devices[i] = ds
	}
	return cp
}

// HostLogPending reports the length of the touched-host log and whether it
// has overflowed, so tests can tell a merged snapshot from a rebuilt one.
func (c *Cluster) HostLogPending() (n int, stale bool) {
	return len(c.hostTouched), c.hostStale
}

// CheckpointDiff describes the first field in which a and b differ, or
// returns "" when they hold the same state. A nil and an empty slice count
// as equal: they encode to the same bytes.
func CheckpointDiff(a, b *Checkpoint) string {
	switch {
	case !slices.Equal(a.LinkClocks, b.LinkClocks):
		return fmt.Sprintf("LinkClocks %v vs %v", a.LinkClocks, b.LinkClocks)
	case !slices.Equal(a.P2PClocks, b.P2PClocks):
		return fmt.Sprintf("P2PClocks %v vs %v", a.P2PClocks, b.P2PClocks)
	case a.InterClock != b.InterClock || a.InterBytes != b.InterBytes:
		return fmt.Sprintf("interconnect %v/%d vs %v/%d", a.InterClock, a.InterBytes, b.InterClock, b.InterBytes)
	case a.LinkFactor != b.LinkFactor || a.TransientLeft != b.TransientLeft:
		return fmt.Sprintf("link factor/transients %v/%d vs %v/%d", a.LinkFactor, a.TransientLeft, b.LinkFactor, b.TransientLeft)
	case len(a.Host) != len(b.Host):
		return fmt.Sprintf("%d host entries vs %d", len(a.Host), len(b.Host))
	case len(a.Devices) != len(b.Devices):
		return fmt.Sprintf("%d devices vs %d", len(a.Devices), len(b.Devices))
	}
	for i := range a.Host {
		x, y := a.Host[i], b.Host[i]
		if x.Desc != y.Desc || !slices.Equal(x.Nodes, y.Nodes) {
			return fmt.Sprintf("host entry %d: %+v vs %+v", i, x, y)
		}
	}
	for i := range a.Devices {
		x, y := a.Devices[i], b.Devices[i]
		if x.Clock != y.Clock || x.CopyClock != y.CopyClock || x.MemPeak != y.MemPeak ||
			x.Capacity != y.Capacity || x.Failed != y.Failed || x.Stats != y.Stats {
			return fmt.Sprintf("device %d state: %+v vs %+v", i, x, y)
		}
		if !slices.Equal(x.Resident, y.Resident) {
			return fmt.Sprintf("device %d resident: %v vs %v", i, x.Resident, y.Resident)
		}
	}
	return ""
}
