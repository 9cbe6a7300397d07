package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json declares exactly the
// workloads and metrics the benchmark emits, with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, c := range []struct {
		declared []declared
		defs     []metricDef
	}{
		{b.EndToEnd, endToEnd},
		{b.PerLayer, perLayer},
	} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, catalogue has %d", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %v, catalogue %s %s", i, c.declared[i], d.name, d.unit)
			}
		}
	}
}

// TestReadmeListsEveryMetric: the catalogue in README.md covers every
// metric the benchmark emits.
func TestReadmeListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name := d.name
		if strings.HasSuffix(name, ".self_ms_per_op") {
			continue // listed as one row for every layer
		}
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("README.md does not list %s", name)
		}
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload, seed: defaultSeed, seconds: 1e-3, trace: trace,
		procs: runtime.NumCPU(), setups: 1, minOps: max(1, deckInputs[workload]),
		tmp: filepath.Join(dir, "tmp"), spans: filepath.Join(dir, "spans.tsv"),
	}
}

// deckInputs makes a smoke run of deck-table6 rotate through all three
// decks; the other workloads have one input.
var deckInputs = map[string]int{"deck-table6": 3}

// TestSmokeEveryWorkload runs each workload untraced and traced at the
// default seed. Every metric BENCHMARK.json names must be emitted with its
// unit, every output must match its pin, and the traced run must leave
// every simulated counter and fingerprint identical to the untraced one.
func TestSmokeEveryWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("full workload runs take minutes under the race detector")
	}
	b := readBenchmarkJSON(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			var records [2][]record
			for i, trace := range []bool{false, true} {
				var out bytes.Buffer
				res, err := measure(context.Background(), smokeConfig(t, wl, trace), &out)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json has %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not emitted", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s reads 0", m.Name)
					}
				}
				records[i] = res.records
			}
			if !reflect.DeepEqual(records[0], records[1]) {
				t.Errorf("traced run changed the outputs:\nuntraced %+v\ntraced   %+v", records[0], records[1])
			}
		})
	}
}

// TestSeedDeterminism: the same seed gives the same stream and numeric
// inputs, another seed a different one.
func TestSeedDeterminism(t *testing.T) {
	e := func(seed int64) *env { return &env{seed: seed, procs: 1, tr: newTracer(false)} }
	stream := func(b bench, seed int64) string {
		if err := b.setup(context.Background(), e(seed)); err != nil {
			t.Fatal(err)
		}
		var w any
		switch b := b.(type) {
		case *synthBench:
			w = b.w
		case *durableBench:
			w = []any{b.w, b.plan}
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for _, mk := range []func() bench{
		func() bench { return &synthBench{} },
		func() bench { return &durableBench{} },
	} {
		a, b, c := stream(mk(), 11), stream(mk(), 11), stream(mk(), 12)
		if a != b {
			t.Errorf("%T: seed 11 gave two different streams", mk())
		}
		if a == c {
			t.Errorf("%T: seeds 11 and 12 gave the same stream", mk())
		}
	}
	if raceEnabled {
		return
	}
	nb := &numericBench{}
	if err := nb.setup(context.Background(), e(11)); err != nil {
		t.Fatal(err)
	}
	fp := func(seed int64) float64 {
		rp, err := replayNumeric(nb.bd.Workload, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rp.fingerprint
	}
	a, b, c := fp(11), fp(11), fp(12)
	if a != b || a == c {
		t.Errorf("numeric fingerprints: seed 11 %x and %x, seed 12 %x", a, b, c)
	}
}

// TestCheckOpReportsMismatches: a record differing in any field, a record
// with no reference, and a record missing kernels all fail the operation.
func TestCheckOpReportsMismatches(t *testing.T) {
	good := record{Input: "in", Scheduler: "S", Makespan: 1, GFLOPS: 2, Kernels: 10, FLOPs: 5, Hits: 3, Fingerprint: 0.5}
	want := map[string]record{good.key(): good}
	if msgs := checkOp(&opOut{pairs: 10, records: []record{good}}, want); len(msgs) != 0 {
		t.Fatalf("matching record rejected: %v", msgs)
	}
	off := good
	off.Fingerprint = 0.5000000000000001
	other := good
	other.Scheduler = "T"
	short := good
	short.Kernels = 9
	for name, rec := range map[string]record{"fingerprint": off, "unknown": other, "kernels": short} {
		if msgs := checkOp(&opOut{pairs: 10, records: []record{rec}}, want); len(msgs) == 0 {
			t.Errorf("%s: mismatch not reported", name)
		}
	}
}

// TestPinsCoverEveryWorkload: pins.json holds a MICCO and a Groute
// record for every input of every workload.
func TestPinsCoverEveryWorkload(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		b, _ := newBench(wl)
		have := map[string]bool{}
		for _, p := range pins[wl] {
			have[p.Scheduler] = true
		}
		if !have[grouteName] || !have[b.micco()] {
			t.Errorf("%s: pins have schedulers %v, want %s and %s", wl, have, b.micco(), grouteName)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	v, p := tailPercentile(xs)
	if v != 20 || p != 100*20.0/30 {
		t.Errorf("30 samples: got %v at p%v, want 20 at p66.7 (ten samples beyond)", v, p)
	}
	if v, p := tailPercentile([]float64{3, 1, 2}); v != 1 || p != 0 {
		t.Errorf("3 samples: got %v at p%v, want the minimum", v, p)
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tailPercentile(xs); v != 899 || p != 90 {
		t.Errorf("1000 samples: got %v at p%v, want 899 at the p90 cap", v, p)
	}
}

// TestAttributionAddsUp: layer self times, carves and the unattributed
// rest partition the operation time exactly.
func TestAttributionAddsUp(t *testing.T) {
	tr := newTracer(true)
	add := func(name string, start, end int64, parent int32) int32 {
		tr.spans = append(tr.spans, span{name: name, start: start, end: end, busy: end - start, count: 1, parent: parent, op: 0})
		return int32(len(tr.spans) - 1)
	}
	op := add("bench.op", 0, 100, -1)
	add("redstar.build", 0, 20, op)
	run := add("sched.run", 20, 95, op)
	tr.spans = append(tr.spans, span{name: "core.assign", start: 21, end: 90, busy: 30, count: 7, parent: run, op: 0})
	st := tr.totals()
	layers, snapshot := st.attribute([]carve{{"tensor", 25, "", false}, {"sched", inf, "", false}})
	var sum float64
	for _, v := range layers {
		sum += v
	}
	want := map[string]float64{"bench": 5, "redstar": 20, "core": 30, "tensor": 25, "sched": 20, "gpusim": 0}
	for l, v := range want {
		if layers[l] != v {
			t.Errorf("%s: %v, want %v", l, layers[l], v)
		}
	}
	if sum != 100 || snapshot != 0 || st.count["core.assign"] != 7 {
		t.Errorf("layers sum to %v of 100; snapshot %v; %d assign calls", sum, snapshot, st.count["core.assign"])
	}
}

// TestRejectsBadSettings: settings above nproc, an unknown workload and a
// bad --trace exit non-zero without a result line.
func TestRejectsBadSettings(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "synth-wide", "--procs", fmt.Sprint(runtime.NumCPU() + 1)},
		{"--workload", "nope"},
		{"--workload", "synth-wide", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
