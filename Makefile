GO ?= go

.PHONY: build test vet race check bench benchsmoke benchguard soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrent engine, corpus builder and experiment harness all run
# under the race detector; race is part of check and must stay clean.
race:
	$(GO) test -race ./...

check: vet test race benchsmoke benchguard

# benchsmoke compiles and runs every benchmark once — including the
# scheduler-overhead suite in internal/sched — so check catches bit-rot
# in benchmark code without paying for real measurements.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchguard checks the recorded performance numbers. Scheduler: any
# BenchmarkSchedulerAssign* entry in BENCH_sched.json (obs-on variants
# excepted) must report 0 allocs/op and stay within 2x the _baseline/
# ns/op merged into the same document. Kernels: every BenchmarkContraction*
# entry in BENCH_kernel.json must stay within 2.5x its baseline ns/op
# (allocation check off — kernel benchmarks legitimately allocate; the
# wider tolerance absorbs machine throttling on shared runners). Stage
# snapshots: BenchmarkCheckpoint/snapshot-stage (one stage's host changes
# merged into reused snapshot buffers) must report 0 allocs/op and stay
# within 2x its baseline ns/op. Re-run `make bench` to refresh the
# recordings before the guard.
benchguard:
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 2.0
	$(GO) run ./cmd/benchjson -guard BENCH_sched.json -guard-tol 2.0 \
		-guard-prefix BenchmarkCheckpoint/snapshot-stage
	$(GO) run ./cmd/benchjson -guard BENCH_kernel.json -guard-tol 2.5 \
		-guard-prefix BenchmarkContraction -guard-max-allocs -1

# soak runs the chaos harness: seeded random fault plans × random
# kill-points (process death simulated by dropping all in-memory state and
# resuming from the durable checkpoint file alone) × every registered
# scheduler × serial/parallel numeric execution × reclaim on/off, each
# iteration asserting the bit-identical exact-mode fingerprint of the
# fault-free run and probing the checkpoint file with seeded corruption.
# MICCO_SOAK_SEEDS scales the run (default 3 seeds, a few seconds;
# CI uses 8).
soak:
	$(GO) test -count=1 -v -run TestChaosSoak ./internal/chaos

# bench measures the contraction-kernel component benchmarks — exact and
# fast tiers, pairwise, stage-fused and pipeline-parallel — with
# allocation stats and records them as BENCH_kernel.json with the
# pre-fast-tier baseline merged in (via cmd/benchjson, which tees the raw
# output through), then the scheduler-overhead suite — per-placement
# cost, obs on/off, the parallel numeric pipeline and the reclaim-arena
# contention probe and the durable checkpoint's snapshot, encode, save
# and load — as BENCH_sched.json with the pre-change baseline
# numbers merged in for comparison.
bench:
	$(GO) test -run '^$$' -bench 'Contraction' -benchmem . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_kernel_baseline.json -o BENCH_kernel.json
	$(GO) test -run '^$$' -bench 'SchedulerAssign|RunScheduleOnly|NumericPipeline|ArenaContention|Checkpoint' -benchmem ./internal/sched \
		| $(GO) run ./cmd/benchjson -baseline BENCH_sched_baseline.json -o BENCH_sched.json
