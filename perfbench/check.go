package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"micco/internal/sched"
)

// record is the checked output of one (input, scheduler) run. Every field
// is simulated or a numeric fingerprint, so it repeats exactly.
type record struct {
	Input     string  `json:"input"`
	Scheduler string  `json:"scheduler"`
	Makespan  float64 `json:"makespan"`
	GFLOPS    float64 `json:"gflops"`
	Kernels   int64   `json:"kernels"`
	FLOPs     int64   `json:"flops"`
	Hits      int64   `json:"hits"`
	Cold      int64   `json:"cold"`
	Evictions int64   `json:"evictions"`
	H2D       int64   `json:"h2d"`
	P2P       int64   `json:"p2p"`
	D2H       int64   `json:"d2h"`
	Inter     int64   `json:"inter"`

	Fingerprint float64 `json:"fingerprint,omitempty"`

	FaultsInjected   int `json:"faults_injected,omitempty"`
	DevicesLost      int `json:"devices_lost,omitempty"`
	PairsRescheduled int `json:"pairs_rescheduled,omitempty"`
	TransientRetries int `json:"transient_retries,omitempty"`
	Attempts         int `json:"attempts,omitempty"`

	// Compiled deck shape (deck inputs only).
	Ops    int `json:"ops,omitempty"`
	Graphs int `json:"graphs,omitempty"`
	Blocks int `json:"blocks,omitempty"`
}

func (r record) key() string { return r.Input + "/" + r.Scheduler }

// recordOf summarizes an engine result; interBytes is the cluster's
// inter-node traffic, which the result does not carry.
func recordOf(input string, res *sched.Result, interBytes int64) record {
	t := res.Total
	return record{
		Input: input, Scheduler: res.Scheduler,
		Makespan: res.Makespan, GFLOPS: res.GFLOPS,
		Kernels: t.Kernels, FLOPs: t.FLOPs, Hits: t.ReuseHits, Cold: t.ColdMisses,
		Evictions: t.Evictions, H2D: t.H2DBytes, P2P: t.P2PBytes, D2H: t.D2HBytes, Inter: interBytes,
		Fingerprint:      res.NumericFingerprint,
		FaultsInjected:   res.Recovery.FaultsInjected,
		DevicesLost:      res.Recovery.DevicesLost,
		PairsRescheduled: res.Recovery.PairsRescheduled,
		TransientRetries: res.Recovery.TransientRetries,
	}
}

// diff describes how got differs from want, or returns "" when every
// field matches exactly.
func diff(got, want record) string {
	if got == want {
		return ""
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	return fmt.Sprintf("got %s, want %s", g, w)
}

//go:embed pins.json
var pinsJSON []byte

// pins holds, per workload, the records of every (input, scheduler) run
// at the default seed.
func loadPins() (map[string][]record, error) {
	var p map[string][]record
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("perfbench: pins.json: %w", err)
	}
	return p, nil
}

// geomean returns the geometric mean of xs (0 when empty or any is <= 0).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
