package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"micco/internal/sched"
	"micco/internal/workload"
)

// span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the tracer's epoch. A leaf span aggregates
// every call of one name under one parent (the scheduler calls inside a
// sched.Run): start and end bound them, busy sums their durations.
type span struct {
	name       string
	start, end int64
	busy       int64 // time covered: end-start, or the calls' sum for a leaf
	count      int32 // calls
	parent     int32 // index of the enclosing span, -1 at top level
	op         int32 // operation index; opSetup, opCalibrate outside the loop
}

// tracer keeps spans in memory for the traced run. A disabled tracer
// records nothing and reads no clock, so the untraced run pays one
// branch per instrumented call.
type tracer struct {
	on    bool
	epoch time.Time
	op    int32
	spans []span
	open  []int32
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), op: -1}
}

// begin opens a span named "<layer>.<call>" nested in the innermost open
// span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), end: -1, parent: parent, op: t.op})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	s.busy, s.count = s.end-s.start, 1
	t.open = t.open[:len(t.open)-1]
}

// leafSlot caches the aggregate span a leaf call adds to.
type leafSlot struct{ parent, idx int32 }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// leaf adds one call that started at start to the aggregate span named
// name under the innermost open span.
func (t *tracer) leaf(name string, slot *leafSlot, start int64) {
	end := t.now()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	if slot.idx < 0 || slot.parent != parent || t.spans[slot.idx].op != t.op {
		t.spans = append(t.spans, span{name: name, start: start, parent: parent, op: t.op})
		*slot = leafSlot{parent: parent, idx: int32(len(t.spans) - 1)}
	}
	s := &t.spans[slot.idx]
	s.end = end
	s.busy += end - start
	s.count++
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// mixedSpans are calls whose self time covers several layers that outside
// timing cannot separate: the engine loop, the simulator, the numeric
// store, snapshots and the supervisor. Their self time is split by the
// workload's same-input ablations (carves); what no carve claims is the
// simulator's, matching gpusim.self_ns_per_pair = Run minus scheduler,
// numeric and snapshot time.
var mixedSpans = map[string]bool{"sched.run": true, "supervise.run": true}

// carve is a per-operation share of mixed self time that a calibration
// attributed to one layer.
type carve struct {
	layer    string
	ns       float64 // per operation
	how      string
	snapshot bool // simulator snapshot time, which gpusim.self_ns_per_pair excludes
}

// spanTotals aggregates the spans of timed operations.
type spanTotals struct {
	ops   int
	opNs  float64            // sum of operation wall times
	dur   map[string]float64 // total duration by span name
	count map[string]int     // calls by span name
	self  map[string]float64 // self time by layer ("bench" = unattributed)
	mixed float64            // self time of mixed spans
}

func (t *tracer) totals() *spanTotals {
	st := &spanTotals{dur: map[string]float64{}, count: map[string]int{}, self: map[string]float64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.busy
		}
	}
	seen := map[int32]bool{}
	for i, s := range t.spans {
		if s.op < 0 {
			continue
		}
		d := float64(s.busy)
		self := d - float64(child[i])
		st.dur[s.name] += d
		st.count[s.name] += int(s.count)
		switch {
		case s.name == "bench.op":
			st.opNs += d
			st.self["bench"] += self
			if !seen[s.op] {
				seen[s.op] = true
				st.ops++
			}
		case mixedSpans[s.name]:
			st.mixed += self
		default:
			st.self[layerOf(s.name)] += self
		}
	}
	return st
}

// attribute applies the carves to the mixed self time. It returns the
// per-operation self time of every layer in nanoseconds, and how much of
// it snapshot carves claimed.
func (st *spanTotals) attribute(carves []carve) (out map[string]float64, snapshot float64) {
	out = map[string]float64{}
	if st.ops == 0 {
		return out, 0
	}
	n := float64(st.ops)
	for l, v := range st.self {
		out[l] = v / n
	}
	rest := st.mixed / n
	for _, c := range carves {
		v := c.ns
		if v > rest {
			v = rest
		}
		if v < 0 {
			v = 0
		}
		out[c.layer] += v
		rest -= v
		if c.snapshot {
			snapshot += v
		}
	}
	out["gpusim"] += rest
	return out, snapshot
}

// writeSpans writes every span as one tab-separated line; the header
// names the columns and the host the run came from.
func (t *tracer) writeSpans(path string, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# index\tname\tstart_ns\tend_ns\tbusy_ns\tcalls\tparent\top\n", host)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.busy, s.count, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedScheduler wraps a scheduler to time every BeginStage and Assign
// call into leaf spans. It is used only in the traced run.
type timedScheduler struct {
	sched.Scheduler
	tr                    *tracer
	beginSpan, assign     string
	beginSlot, assignSlot leafSlot
}

// wrap returns s unchanged when tracing is off, else a timing wrapper
// whose spans are attributed to layer.
func (t *tracer) wrap(s sched.Scheduler, layer string) sched.Scheduler {
	if !t.on {
		return s
	}
	return &timedScheduler{Scheduler: s, tr: t, beginSpan: layer + ".begin_stage", assign: layer + ".assign",
		beginSlot: leafSlot{idx: -1}, assignSlot: leafSlot{idx: -1}}
}

func (s *timedScheduler) BeginStage(ctx *sched.Context) {
	t0 := s.tr.now()
	s.Scheduler.BeginStage(ctx)
	s.tr.leaf(s.beginSpan, &s.beginSlot, t0)
}

func (s *timedScheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	t0 := s.tr.now()
	d := s.Scheduler.Assign(p, ctx)
	s.tr.leaf(s.assign, &s.assignSlot, t0)
	return d
}

// unwrap returns the scheduler inside a timing wrapper.
func unwrap(s sched.Scheduler) sched.Scheduler {
	if t, ok := s.(*timedScheduler); ok {
		return t.Scheduler
	}
	return s
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
