// Package hier implements a two-level scheduler for multi-node clusters
// (Config.NodeSize topologies): an inter-node placer shards the correlation
// graph across nodes, and a MICCO-style intra-node pass places each pair on
// a device within the chosen node. The split mirrors the cost hierarchy of
// the topology model — inter-node transfers ride a shared interconnect an
// order of magnitude slower than a node's host link or P2P fabric — so
// keeping a pair's operands inside one node matters more than which of the
// node's devices runs it.
//
// Level 1 (node choice) is Algorithm 1 one level up: prefer nodes already
// holding both operands, then either, then any node, each step gated by a
// node reuse bound against per-node stage balance; ties break toward the
// least-loaded, lowest-numbered node. Level 2 reruns the same candidate
// steps restricted to the node's device range under the per-device reuse
// bounds, picking the earliest-available candidate (projected memory, then
// lowest ID, as tie-breaks — deterministic, no RNG).
//
// Complexity per pair is O(|holders| + numNodes + nodeSize), independent
// of total device count, which is what keeps scheduler throughput
// sub-linear in cluster size; like the flat MICCO scheduler, the placement
// path performs zero allocations once its scratch reaches steady state.
// On single-node clusters level 1 degenerates to "node 0" and the
// scheduler behaves like a deterministic-tie-break MICCO.
package hier

import (
	"fmt"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/sched"
	"micco/internal/workload"
)

// Scheduler is the two-level node/device scheduler. Construct with New.
type Scheduler struct {
	name      string
	nodeBound int
	bounds    core.Bounds

	// Per-stage topology snapshot (refreshed in BeginStage).
	numNodes int
	nodeSize int
	numGPU   int
	// nodeLoad[n] is tensor slots assigned to node n this stage (+2 per
	// pair, matching Context.StageLoad units).
	nodeLoad []int
	// aStamp/bStamp mark nodes holding operand A/B of the current pair;
	// epoch stamping (compare against stamp) avoids an O(numNodes) clear
	// per Assign.
	aStamp, bStamp []uint64
	stamp          uint64
	// candN/candi are the reusable node- and device-candidate queues.
	candN []int
	candi []int
}

// New returns a two-level scheduler: nodeBound is the node-level reuse
// bound (extra tensor slots a node may absorb past per-node balance in
// exchange for operand reuse), b the per-device reuse bounds of the
// intra-node pass.
func New(nodeBound int, b core.Bounds) *Scheduler {
	return &Scheduler{
		name:      fmt.Sprintf("Hier(%d)%s", nodeBound, b),
		nodeBound: nodeBound,
		bounds:    b,
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// BeginStage implements sched.Scheduler: it snapshots the topology and
// resets per-stage node loads. Scratch is grown once and reused, so
// steady-state stages allocate nothing.
func (s *Scheduler) BeginStage(ctx *sched.Context) {
	s.numGPU = ctx.NumGPU
	s.numNodes = ctx.Cluster.NumNodes()
	s.nodeSize = ctx.Cluster.Config().NodeSize
	if s.nodeSize <= 0 {
		s.nodeSize = s.numGPU
	}
	if cap(s.nodeLoad) < s.numNodes {
		s.nodeLoad = make([]int, s.numNodes)
		s.aStamp = make([]uint64, s.numNodes)
		s.bStamp = make([]uint64, s.numNodes)
		s.candN = make([]int, 0, s.numNodes)
	}
	s.nodeLoad = s.nodeLoad[:s.numNodes]
	for n := range s.nodeLoad {
		s.nodeLoad[n] = 0
	}
	if cap(s.candi) < s.nodeSize {
		s.candi = make([]int, 0, s.nodeSize)
	}
}

// sizeOf returns node n's device count (the last node may be partial).
func (s *Scheduler) sizeOf(n int) int {
	size := s.numGPU - n*s.nodeSize
	if size > s.nodeSize {
		size = s.nodeSize
	}
	return size
}

// Assign implements sched.Scheduler.
func (s *Scheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	ma := ctx.HoldersMask(p.A.ID)
	mb := ctx.HoldersMask(p.B.ID)

	// Mark the nodes holding each operand: O(|holders|), independent of
	// node and device counts.
	s.stamp++
	for it := ma.First(); it >= 0; it = ma.NextFrom(it + 1) {
		s.aStamp[it/s.nodeSize] = s.stamp
	}
	for it := mb.First(); it >= 0; it = mb.NextFrom(it + 1) {
		s.bStamp[it/s.nodeSize] = s.stamp
	}

	node := s.pickNode(ctx)
	dev := s.pickDevice(node, &p, ctx, ma, mb)
	if dev < 0 {
		// The chosen node has no live device: global fallback to the
		// least-loaded live device anywhere.
		for it := 0; it < s.numGPU; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if dev < 0 || ctx.StageLoad[it] < ctx.StageLoad[dev] {
				dev = it
			}
		}
		if dev < 0 {
			dev = 0 // no live device: unreachable, the engine errors first
		}
	}
	s.nodeLoad[dev/s.nodeSize] += 2
	if rec := ctx.Decision; rec != nil {
		rec.Policy = "two-level"
	}
	return dev
}

// pickNode is level 1: choose the node to place the current pair on.
// Candidate steps mirror Algorithm 1 — nodes holding both operands, then
// either, then all — each gated by the node reuse bound against per-node
// balance; among candidates the least-loaded (lowest index on ties) wins.
func (s *Scheduler) pickNode(ctx *sched.Context) int {
	s.candN = s.candN[:0]
	// limit is per-node balanced slots plus the node bound (in slots).
	limit := func(n int) int { return ctx.BalanceNum*s.sizeOf(n) + 2*s.nodeBound }
	for n := 0; n < s.numNodes; n++ {
		if s.aStamp[n] == s.stamp && s.bStamp[n] == s.stamp && s.nodeLoad[n] < limit(n) {
			s.candN = append(s.candN, n)
		}
	}
	if len(s.candN) == 0 {
		for n := 0; n < s.numNodes; n++ {
			if (s.aStamp[n] == s.stamp || s.bStamp[n] == s.stamp) && s.nodeLoad[n] < limit(n) {
				s.candN = append(s.candN, n)
			}
		}
	}
	if len(s.candN) == 0 {
		for n := 0; n < s.numNodes; n++ {
			if s.nodeLoad[n] < limit(n) {
				s.candN = append(s.candN, n)
			}
		}
	}
	if len(s.candN) == 0 {
		// Every node past its limit (pathological bounds or heavy
		// recovery re-placement): least-loaded node outright.
		best := 0
		for n := 1; n < s.numNodes; n++ {
			if s.nodeLoad[n] < s.nodeLoad[best] {
				best = n
			}
		}
		return best
	}
	best := s.candN[0]
	for _, n := range s.candN[1:] {
		if s.nodeLoad[n] < s.nodeLoad[best] {
			best = n
		}
	}
	return best
}

// pickDevice is level 2: a MICCO-style candidate pass restricted to the
// chosen node's device range [lo, hi). Steps I-III of Algorithm 1 run
// against the node's slice of the holder sets under the per-device reuse
// bounds; the final choice is the earliest-available candidate, breaking
// ties by projected memory and then lowest device ID (deterministic).
// Returns -1 when the node has no live device.
func (s *Scheduler) pickDevice(node int, p *workload.Pair, ctx *sched.Context, ma, mb gpusim.DevSet) int {
	lo := node * s.nodeSize
	hi := lo + s.sizeOf(node)
	s.candi = s.candi[:0]

	// Step I: devices in the node holding both operands. Holder iteration
	// starts at lo and stops at the node edge, so cost tracks the node's
	// share of the holder set, not the cluster. Steps I-II need no down
	// filter: a failed device's residency drops the moment it fails.
	if ma.Intersects(mb) {
		lim := ctx.BalanceNum + s.bounds[0]
		for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
			if mb.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
	}

	// Step II: devices in the node holding either operand (A-holders first,
	// then B-only, ascending — the flat scheduler's candidate order).
	if len(s.candi) == 0 && !(ma.Empty() && mb.Empty()) {
		lim := ctx.BalanceNum + s.bounds[1]
		for it := ma.NextFrom(lo); it >= 0 && it < hi; it = ma.NextFrom(it + 1) {
			if ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
		for it := mb.NextFrom(lo); it >= 0 && it < hi; it = mb.NextFrom(it + 1) {
			if !ma.Has(it) && ctx.StageLoad[it] < lim {
				s.candi = append(s.candi, it)
			}
		}
	}

	// Step III: any live device in the node under the third bound. Fault-
	// free runs skip the per-device down probe.
	if len(s.candi) == 0 {
		lim := ctx.BalanceNum + s.bounds[2]
		down := !ctx.Down.Empty()
		for it := lo; it < hi; it++ {
			if ctx.StageLoad[it] < lim && !(down && ctx.Down.Has(it)) {
				s.candi = append(s.candi, it)
			}
		}
	}

	// Defensive fallback within the node: least-loaded live device.
	if len(s.candi) == 0 {
		best := -1
		for it := lo; it < hi; it++ {
			if ctx.Down.Has(it) {
				continue
			}
			if best < 0 || ctx.StageLoad[it] < ctx.StageLoad[best] {
				best = it
			}
		}
		return best // -1 when the whole node is down
	}

	// Final choice: minimum device clock; ties by projected memory, then by
	// lowest ID (candidates are ascending and replacement is strict-less).
	// Each candidate device is read once; projected memory is computed only
	// for candidates that reach the best clock so far.
	fp := sched.FootprintOf(p)
	best, bestClock, bestMem := -1, 0.0, int64(0)
	for _, id := range s.candi {
		d := ctx.Cluster.Device(id)
		switch c := d.Clock(); {
		case best < 0 || c < bestClock:
			best, bestClock, bestMem = id, c, fp.Projected(d.MemUsed(), ma.Has(id), mb.Has(id))
		case c == bestClock:
			if m := fp.Projected(d.MemUsed(), ma.Has(id), mb.Has(id)); m < bestMem {
				best, bestMem = id, m
			}
		}
	}
	return best
}
