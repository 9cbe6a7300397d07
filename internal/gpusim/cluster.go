package gpusim

import (
	"fmt"

	"micco/internal/tensor"
)

// Cluster is a simulated multi-GPU cluster plus its host(s). Hosts are
// assumed to have unbounded memory; input tensors are registered
// host-resident before simulation, and dirty evictions write outputs back
// to the host. With Config.NodeSize set, consecutive devices group into
// nodes, each with its own host link and P2P fabric, joined by a shared
// inter-node interconnect.
type Cluster struct {
	cfg          Config
	devices      []*Device
	hostResident map[uint64]tensor.Desc
	// hostNodes tracks, per host-resident tensor, the set of nodes whose
	// host partition has the copy (bit n = node n). nil on single-node
	// clusters, where host memory is one pool and the map would be pure
	// overhead; non-nil iff numNodes > 1.
	hostNodes map[uint64]DevSet
	// linkClocks[n] is node n's host-link (PCIe fabric) availability time.
	// Every H2D and D2H transfer from node n's devices serializes on it: a
	// transfer starts at max(device clock, link clock) and advances both.
	// This models the single-CPU testbed of the paper, where aggregate
	// host traffic is the scaling bottleneck (its Fig. 9 shows only 1.65x
	// throughput from 1 to 8 GPUs). P2P copies bypass the host link.
	linkClocks []float64
	// p2pClocks[n] is node n's inter-GPU fabric availability time;
	// intra-node P2P copies (Config.PeerFetch) serialize on it the same
	// way host traffic serializes on the host link.
	p2pClocks []float64
	// interClock is the inter-node interconnect availability time: every
	// cross-node transfer — peer copies between nodes, and host-copy
	// shipping between host partitions — serializes on this one fabric.
	interClock float64
	// interBytes counts total bytes moved over the inter-node fabric.
	interBytes int64
	numNodes   int
	// nodeRestWords sizes the spill of node sets in hostNodes (clusters
	// with more than 64 nodes).
	nodeRestWords int
	// tracing/traceEvents implement optional event recording (StartTrace).
	tracing     bool
	traceEvents []Event
	// sink, when non-nil, feeds every simulated event into an attached
	// metrics registry (SetObserver). Independent of tracing; survives
	// Reset.
	sink *obsSink
	// index is the reverse residency map (tensor ID -> holder set),
	// maintained by the devices at every install and drop so residency
	// queries cost one map probe instead of a device scan.
	index *residencyIndex
	// bwFactor scales all transfer bandwidths under fault-injected link
	// degradation; zero means no degradation (factor 1).
	bwFactor float64
	// transientLeft is how many injected transient transfer failures
	// remain to be consumed by operand fetches.
	transientLeft int
	// hostSorted is a private copy of hostResident's descs, ID-sorted, as
	// of the last snapshot; hostSpare is the buffer the next snapshot
	// merges into before the two swap. hostTouched logs the host IDs
	// changed since that snapshot, so a snapshot re-reads only those.
	// hostStale means the log overflowed (a cluster that rarely or never
	// snapshots) and hostSorted must be rebuilt from the map in full.
	hostSorted, hostSpare []tensor.Desc
	hostTouched           []uint64
	hostStale             bool
	// hostMapSize is the most entries the host maps have held or been
	// sized for, so Restore can presize fresh maps and leave grown ones.
	hostMapSize int
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nn := cfg.NumNodes()
	c := &Cluster{
		cfg:          cfg,
		hostResident: make(map[uint64]tensor.Desc),
		index:        newResidencyIndex(cfg.NumDevices),
		linkClocks:   make([]float64, nn),
		p2pClocks:    make([]float64, nn),
		numNodes:     nn,
	}
	if nn > 1 {
		c.hostNodes = make(map[uint64]DevSet)
		if nn > InlineDevices {
			c.nodeRestWords = (nn - InlineDevices + 63) >> 6
		}
	}
	for i := 0; i < cfg.NumDevices; i++ {
		c.devices = append(c.devices, newDevice(i, &c.cfg, c.index))
	}
	return c, nil
}

// Config returns the cluster's hardware configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumDevices returns the device count.
func (c *Cluster) NumDevices() int { return len(c.devices) }

// NumNodes returns the node count (1 unless Config.NodeSize groups the
// devices into several nodes).
func (c *Cluster) NumNodes() int { return c.numNodes }

// NodeOf returns the node device dev belongs to.
func (c *Cluster) NodeOf(dev int) int { return c.cfg.NodeOf(dev) }

// InterNodeBytes returns total bytes moved over the inter-node
// interconnect so far (zero on single-node clusters).
func (c *Cluster) InterNodeBytes() int64 { return c.interBytes }

// Device returns device i.
func (c *Cluster) Device(i int) *Device { return c.devices[i] }

// RegisterHostTensor marks a tensor as available in host memory (an input
// produced upstream, e.g. a perambulator loaded from disk). On multi-node
// clusters the copy lands in node 0's host partition — the gateway node
// where upstream I/O arrives — and other nodes' first use pays one
// inter-node shipment.
func (c *Cluster) RegisterHostTensor(d tensor.Desc) {
	c.hostResident[d.ID] = d
	c.touchHost(d.ID)
	if c.hostNodes != nil {
		c.hostNodes[d.ID] = c.hostNodes[d.ID].with(0, c.nodeRestWords)
	}
}

// HostHolds reports whether any host partition has a copy of tensor id.
func (c *Cluster) HostHolds(id uint64) bool {
	_, ok := c.hostResident[id]
	return ok
}

// markHostOn records a host copy of id in node n's partition (no-op on
// single-node clusters, where hostResident alone is the host state).
func (c *Cluster) markHostOn(id uint64, n int) {
	if c.hostNodes != nil {
		c.hostNodes[id] = c.hostNodes[id].with(n, c.nodeRestWords)
	}
}

// touchHost logs a change to host entry id for the next snapshot. Once
// the log outgrows the registry a full rebuild is cheaper than a merge,
// so the log is dropped; from then on a host mutation costs one branch
// until the next snapshot rebuilds the registry.
func (c *Cluster) touchHost(id uint64) {
	if c.hostStale {
		return
	}
	if len(c.hostTouched) > len(c.hostSorted) {
		c.hostStale = true
		c.hostTouched = c.hostTouched[:0]
		return
	}
	c.hostTouched = append(c.hostTouched, id)
}

// HoldersOf returns the IDs of devices with tensor id resident. It
// allocates a fresh slice per call.
//
// Deprecated: use HoldersMask (allocation-free DevSet view) or
// AppendHoldersOf (caller-owned buffer); HoldersOf survives only for
// callers that want a throwaway slice.
func (c *Cluster) HoldersOf(id uint64) []int {
	return c.AppendHoldersOf(nil, id)
}

// EnsureResident makes tensor desc resident on device dev, advancing the
// device's transfer queue by the cost incurred: zero for a reuse hit, else
// allocation (with any evictions) plus a P2P copy if a peer holds it,
// otherwise an H2D copy from the host.
func (c *Cluster) EnsureResident(dev int, desc tensor.Desc) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	if d.failed {
		return fmt.Errorf("gpusim: %w: device %d (staging tensor %d)", ErrDeviceLost, dev, desc.ID)
	}
	_, err = c.ensureResident(d, desc, false)
	return err
}

// ensureResident is EnsureResident on a resolved device, returning the
// time at which the block's data is usable; when pin is true the block is
// left pinned so a subsequent allocation cannot evict it.
func (c *Cluster) ensureResident(d *Device, desc tensor.Desc, pin bool) (float64, error) {
	if b, ok := d.resident[desc.ID]; ok {
		d.touch(b)
		b.pinned = b.pinned || pin
		d.stats.ReuseHits++
		return b.readyAt, nil
	}
	// Injected transient failures strike cold fetches only (a reuse hit
	// moves no data). The attempt itself charges nothing; the engine's
	// retry policy charges backoff to simulated time.
	if c.transientLeft > 0 {
		c.transientLeft--
		return 0, fmt.Errorf("gpusim: %w: device %d fetching tensor %d (%d bytes)",
			ErrTransientTransfer, d.id, desc.ID, desc.Bytes())
	}
	// Locate a source before spending anything. Peer sourcing is only
	// used when the config enables it; the default data path stages
	// through the host. One index probe answers both questions. A
	// same-node peer is preferred (xGMI-class fabric); failing that, the
	// lowest-numbered cross-node holder serves over the inter-node
	// interconnect.
	holders := c.index.of(desc.ID)
	var peer *Device
	if c.cfg.PeerFetch {
		var cross *Device
		for it := holders.First(); it >= 0; it = holders.NextFrom(it + 1) {
			if it == d.id {
				continue
			}
			p := c.devices[it]
			if p.node == d.node {
				peer = p
				break
			}
			if cross == nil {
				cross = p
			}
		}
		if peer == nil {
			peer = cross
		}
	}
	if peer == nil && !c.HostHolds(desc.ID) {
		if !holders.Empty() {
			// Peer copies exist but peer fetch is disabled: stage through
			// the host by paying one D2H write-back first.
			src := c.devices[holders.First()]
			dur := float64(desc.Bytes()) / c.d2hBandwidth(src)
			c.hostTransfer(src, dur)
			src.stats.D2HBytes += desc.Bytes()
			if c.observing() {
				c.trace(Event{Kind: EventD2H, Device: src.id, Tensor: desc.ID,
					Start: src.CopyClock() - dur, End: src.CopyClock(), Bytes: desc.Bytes()})
			}
			c.hostResident[desc.ID] = desc
			c.touchHost(desc.ID)
			c.markHostOn(desc.ID, src.node)
		} else {
			return 0, fmt.Errorf("gpusim: %w: tensor %d (%d bytes) resident on no device and absent from host (device %d requesting)",
				ErrTensorUnavailable, desc.ID, desc.Bytes(), d.id)
		}
	}
	if peer == nil && c.hostNodes != nil && !c.hostNodes[desc.ID].Has(d.node) {
		// The host copy lives in another node's partition: ship it over
		// the inter-node interconnect into this node's partition first,
		// then fetch locally. The copy stays cached node-side, so repeat
		// misses on this node pay only the local H2D.
		c.interTransfer(d, desc)
		c.markHostOn(desc.ID, d.node)
	}
	if err := c.alloc(d, desc); err != nil {
		return 0, err
	}
	if peer != nil {
		if peer.node == d.node {
			// Intra-node P2P copies run on the node's inter-GPU fabric,
			// shared by all of its pairs: the copy starts when both the
			// destination's transfer queue and the fabric are free.
			dur := float64(desc.Bytes()) / c.p2pBandwidth(d)
			queue := d.CopyClock()
			start := queue
			if pc := c.p2pClocks[d.node]; pc > start {
				start = pc
			}
			end := start + dur
			c.p2pClocks[d.node] = end
			d.advanceTransferQueue(end - queue)
			d.stats.TransferTime += end - queue
			d.stats.P2PBytes += desc.Bytes()
			if c.sink != nil {
				c.sink.p2pBusy.Add(dur)
				c.sink.p2pStall.Add(start - queue)
			}
			if c.observing() {
				c.trace(Event{Kind: EventP2P, Device: d.id, Tensor: desc.ID,
					Start: start, End: end, Bytes: desc.Bytes()})
			}
		} else {
			// Cross-node peer copy: serialized on the inter-node fabric,
			// charged at its bandwidth plus fixed latency.
			c.interTransfer(d, desc)
			d.stats.P2PBytes += desc.Bytes()
		}
	} else {
		dur := float64(desc.Bytes()) / c.h2dBandwidth(d)
		c.hostTransfer(d, dur)
		d.stats.H2DBytes += desc.Bytes()
		if c.observing() {
			c.trace(Event{Kind: EventH2D, Device: d.id, Tensor: desc.ID,
				Start: d.CopyClock() - dur, End: d.CopyClock(), Bytes: desc.Bytes()})
		}
	}
	d.stats.ColdMisses++
	b := d.install(desc, false)
	b.pinned = pin
	b.readyAt = d.CopyClock()
	if c.sink != nil {
		c.sink.observeMem(d)
	}
	return b.readyAt, nil
}

// interTransfer charges one inter-node shipment of desc toward device d's
// node: fixed interconnect latency plus bytes at the (degradable)
// inter-node bandwidth, serialized on the single shared inter-node fabric
// and on d's transfer queue.
func (c *Cluster) interTransfer(d *Device, desc tensor.Desc) {
	dur := c.cfg.InterNodeLatency + float64(desc.Bytes())/c.interBandwidth()
	queue := d.CopyClock()
	start := queue
	if c.interClock > start {
		start = c.interClock
	}
	end := start + dur
	c.interClock = end
	d.advanceTransferQueue(end - queue)
	d.stats.TransferTime += end - queue
	c.interBytes += desc.Bytes()
	if c.sink != nil {
		c.sink.interBusy.Add(dur)
		c.sink.interStall.Add(start - queue)
	}
	if c.observing() {
		c.trace(Event{Kind: EventInter, Device: d.id, Tensor: desc.ID,
			Start: start, End: end, Bytes: desc.Bytes()})
	}
}

// hostTransfer charges a transfer of duration dur that occupies both the
// device's transfer queue and its node's host link: it begins when both
// are free and advances both to its completion, charging the
// stall-inclusive elapsed time to the device's TransferTime.
func (c *Cluster) hostTransfer(d *Device, dur float64) {
	d.stats.TransferTime += c.hostLinkOccupy(d, dur)
}

// hostLinkOccupy reserves device d's node's host link for dur seconds on
// behalf of d's transfer queue and returns the elapsed queue time
// including any stall waiting for the link.
func (c *Cluster) hostLinkOccupy(d *Device, dur float64) float64 {
	queue := d.clock
	if d.cfg.AsyncCopy {
		queue = d.copyClock
	}
	start := queue
	if lc := c.linkClocks[d.node]; lc > start {
		start = lc
	}
	end := start + dur
	elapsed := end - queue
	if d.cfg.AsyncCopy {
		d.copyClock = end
	} else {
		d.clock = end
	}
	c.linkClocks[d.node] = end
	if c.sink != nil {
		c.sink.hostBusy.Add(dur)
		c.sink.hostStall.Add(start - queue)
	}
	return elapsed
}

// alloc charges allocation latency (on the transfer queue: it is part of
// the staging path) and evicts LRU blocks until desc fits.
func (c *Cluster) alloc(d *Device, desc tensor.Desc) error {
	if err := d.evictFor(desc.Bytes(), c); err != nil {
		return fmt.Errorf("allocating tensor %d: %w", desc.ID, err)
	}
	d.advanceTransferQueue(d.prof.AllocLatency)
	d.stats.AllocTime += d.prof.AllocLatency
	return nil
}

// ExecContraction simulates one hadron contraction of a with b on device
// dev, producing out (which becomes resident and dirty). Both inputs are
// made resident first. Returns the FLOPs executed.
func (c *Cluster) ExecContraction(dev int, a, b, out tensor.Desc) (int64, error) {
	d, err := c.device(dev)
	if err != nil {
		return 0, err
	}
	if d.failed {
		return 0, fmt.Errorf("gpusim: %w: device %d (contraction for tensor %d)", ErrDeviceLost, dev, out.ID)
	}
	flops, err := tensor.ContractFLOPs(a, b)
	if err != nil {
		return 0, err
	}
	readyA, err := c.ensureResident(d, a, true)
	if err != nil {
		return 0, err
	}
	readyB, err := c.ensureResident(d, b, true)
	if err != nil {
		c.unpin(d, a.ID)
		return 0, err
	}
	// Output allocation may evict, but never the pinned inputs.
	outReady := d.CopyClock()
	if ob, ok := d.resident[out.ID]; ok {
		// Re-execution into an existing buffer (e.g. accumulation).
		d.touch(ob)
		ob.dirty = true
		outReady = ob.readyAt
	} else {
		if err := c.alloc(d, out); err != nil {
			c.unpin(d, a.ID)
			c.unpin(d, b.ID)
			return 0, err
		}
		nb := d.install(out, true)
		nb.readyAt = d.CopyClock()
		outReady = nb.readyAt
		if c.sink != nil {
			c.sink.observeMem(d)
		}
	}
	if c.cfg.AsyncCopy {
		// The kernel waits for its operands' copies, then runs on the
		// compute queue, overlapping with unrelated transfers.
		start := d.clock
		for _, r := range []float64{readyA, readyB, outReady} {
			if r > start {
				start = r
			}
		}
		d.clock = start
	}
	kt := d.prof.KernelLaunch + float64(flops)/d.prof.FLOPS
	d.clock += kt
	d.stats.KernelTime += kt
	d.stats.Kernels++
	d.stats.FLOPs += flops
	if c.observing() {
		c.trace(Event{Kind: EventKernel, Device: d.id, Tensor: out.ID,
			Start: d.clock - kt, End: d.clock, FLOPs: flops})
	}
	c.unpin(d, a.ID)
	c.unpin(d, b.ID)
	return flops, nil
}

func (c *Cluster) unpin(d *Device, id uint64) {
	if b, ok := d.resident[id]; ok {
		b.pinned = false
	}
}

// Discard drops tensor id from every device without write-back and forgets
// any host copy. Used when an intermediate's last consumer has run.
func (c *Cluster) Discard(id uint64) {
	for _, d := range c.devices {
		if b, ok := d.resident[id]; ok {
			d.drop(b)
		}
	}
	n := len(c.hostResident)
	delete(c.hostResident, id)
	if len(c.hostResident) < n {
		c.touchHost(id)
	}
	if c.hostNodes != nil {
		delete(c.hostNodes, id)
	}
}

// Barrier synchronizes all device queues to the maximum, modeling the
// stage boundary between dependency-partitioned vectors.
func (c *Cluster) Barrier() {
	m := c.Makespan()
	for _, d := range c.devices {
		d.clock = m
		d.copyClock = m
	}
}

// Makespan returns the latest queue time across all devices in seconds.
func (c *Cluster) Makespan() float64 {
	var m float64
	for _, d := range c.devices {
		if t := d.busyUntil(); t > m {
			m = t
		}
	}
	return m
}

// TotalStats sums the per-device counters.
func (c *Cluster) TotalStats() DeviceStats {
	var s DeviceStats
	for _, d := range c.devices {
		s.add(d.stats)
	}
	return s
}

// MoveStats returns just the movement counters the placement decision
// path charges per pair — H2D+P2P bytes, D2H bytes, evictions — so the
// engine's before/after delta costs three additions per device instead
// of summing the full thirteen-field stats struct twice.
func (c *Cluster) MoveStats() (moveBytes, d2hBytes, evictions int64) {
	for _, d := range c.devices {
		moveBytes += d.stats.H2DBytes + d.stats.P2PBytes
		d2hBytes += d.stats.D2HBytes
		evictions += d.stats.Evictions
	}
	return
}

// GFLOPS returns achieved throughput: total kernel FLOPs divided by the
// makespan, in GFLOP/s. Zero if nothing ran.
func (c *Cluster) GFLOPS() float64 {
	m := c.Makespan()
	if m == 0 {
		return 0
	}
	return float64(c.TotalStats().FLOPs) / m / 1e9
}

// Reset returns every device to time zero with empty pools, frees the
// links, and clears the host registry. Maps and device block pools keep
// their capacity, so back-to-back runs on one cluster settle into a
// steady state where the simulator allocates nothing.
func (c *Cluster) Reset() {
	for _, d := range c.devices {
		d.reset()
	}
	// Devices skip per-tensor index updates during reset; one bulk clear
	// replaces what would be a map delete per resident tensor.
	c.index.clearAll()
	for n := range c.linkClocks {
		c.linkClocks[n] = 0
		c.p2pClocks[n] = 0
	}
	c.interClock = 0
	c.interBytes = 0
	c.hostMapSize = max(c.hostMapSize, len(c.hostResident))
	clear(c.hostResident)
	if c.hostNodes != nil {
		clear(c.hostNodes)
	}
	c.hostSorted = c.hostSorted[:0]
	c.hostTouched = c.hostTouched[:0]
	c.hostStale = false
	c.traceEvents = nil
	c.bwFactor = 0
	c.transientLeft = 0
}

func (c *Cluster) device(i int) (*Device, error) {
	if i < 0 || i >= len(c.devices) {
		return nil, fmt.Errorf("gpusim: %w: device %d out of range [0,%d)", ErrInvalidDevice, i, len(c.devices))
	}
	return c.devices[i], nil
}

// ChargeExternalTransfer advances device dev's transfer queue by seconds,
// accounting it as transfer time. Multi-cluster compositions use this to
// charge network time that this cluster's model knows nothing about.
func (c *Cluster) ChargeExternalTransfer(dev int, seconds float64) error {
	d, err := c.device(dev)
	if err != nil {
		return err
	}
	if seconds < 0 {
		return fmt.Errorf("gpusim: negative external transfer %v", seconds)
	}
	d.advanceTransferQueue(seconds)
	d.stats.TransferTime += seconds
	return nil
}

// BarrierAt raises every device queue (and the host links) to at least t,
// implementing barriers that span multiple clusters.
func (c *Cluster) BarrierAt(t float64) {
	for _, d := range c.devices {
		if d.clock < t {
			d.clock = t
		}
		if d.copyClock < t {
			d.copyClock = t
		}
	}
	for n := range c.linkClocks {
		if c.linkClocks[n] < t {
			c.linkClocks[n] = t
		}
	}
}
