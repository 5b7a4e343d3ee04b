# EdgeSurgeon build/verification targets.

GO ?= go

.PHONY: all build vet test test-short test-race fuzz-smoke bench bench-smoke bench-planner-smoke bench-frontier-smoke bench-replan-smoke bench-serve-smoke serve-smoke chaos-smoke cluster-smoke client-smoke backpressure-stress experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-check the concurrent paths: planner (parallel surgery fan-out,
# shared memoization cache, candidate-move evaluation), the sharded
# simulator (component worker pool + differential equivalence tests), the
# networked data plane (wire codec, agent scheduling, dispatcher,
# subprocess loopback cluster), and a small E21 scale run through the
# experiments arm pool.
test-race:
	$(GO) test -race -timeout 30m ./internal/joint/... ./internal/surgery/... ./internal/sim/... ./internal/telemetry/... ./internal/serve/...
	$(GO) test -race -timeout 15m ./internal/wire/... ./internal/agent/... ./internal/client/... ./internal/cluster/...
	$(GO) test -race -run 'TestE21SmallScaleAgrees' ./internal/experiments

# Short fuzzing pass over the optimizer kernels (~10 s per target): the
# surgery optimizer must never panic or emit invalid plans, frontier
# lookups must stay bit-identical to the optimizer at snapped shares, the
# deadline-aware allocator must keep shares in [0, 1] summing to <= 1, and
# end-to-end planning of arbitrary decoded scenarios (monolithic and
# sharded routes both) must never panic or break the share invariants.
fuzz-smoke:
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzSurgeryOptimize -fuzztime 10s
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzFrontierLookup -fuzztime 10s
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzAllocDeadline -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzPlanScenario -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s
	$(GO) test ./internal/client -run '^$$' -fuzz FuzzClientDecode -fuzztime 10s

# One benchmark per evaluation artifact (E1-E21) plus kernel microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Fast perf guard for CI: one iteration of the simulator event-loop and
# multi-user scaling benchmarks with allocation accounting.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineEvents|BenchmarkE4' -benchtime=1x -benchmem . ./internal/sim

# Planner perf guard for CI: the CI-sized E23 scale study (one dual-arm
# size plus one sharded-only size) writing BENCH_planner.json, with the
# metric keys dashboards consume asserted present.
bench-planner-smoke:
	$(GO) run ./cmd/experiments -run E23 -quick -bench-json BENCH_planner.json \
		-require-metrics E23.speedup_vs_monolithic,E23.gap_worst_pct,E23.users_max,E23.sharded_wallclock_sec,E23.frontier_wallclock_sec

# Frontier perf guard for CI: the CI-sized E24 frontier-table study (build
# + plan timings with the frontier/optimizer parity cross-check, and the
# build cost per optimizer probe next to the core count), merged
# into the same BENCH_planner.json, with its metric keys asserted present.
bench-frontier-smoke:
	$(GO) run ./cmd/experiments -run E24 -quick -bench-json BENCH_planner.json \
		-require-metrics E24.speedup_vs_legacy,E24.frontier_wallclock_sec,E24.build_sec,E24.build_us_per_probe,E24.cores,E24.hit_rate_pct,E24.parity_ok

# Replan-latency guard for CI: the CI-sized E26 delta-replan study (full
# replan vs dirty-single-shard delta replan from the same previous plan),
# merged into the same BENCH_planner.json, with its metric keys — the core
# count the timings were taken on among them — asserted present.
bench-replan-smoke:
	$(GO) run ./cmd/experiments -run E26 -quick -bench-json BENCH_planner.json \
		-require-metrics E26.replan_speedup,E26.delta_gap_pct,E26.full_replan_sec,E26.delta_replan_sec,E26.users_max,E26.cores

# Control-plane smoke for CI: replay the bundled drifting + faulty trace
# through cmd/edgeserved and pin the hysteresis policy's full-replan count
# (the replay is deterministic, so the golden value is exact).
serve-smoke:
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl \
		-policy hysteresis -expect-full-replans 4

# Crash-recovery smoke for CI: replay the same trace through the
# snapshot/WAL-backed control plane, kill the process after samples 3 and
# 8 plus throttle the planner and corrupt a sample, then assert the
# recovered run's journal, metrics and final plan are byte-identical to a
# crash-free rerun (-verify-recovery exits non-zero on any divergence).
# The in-process harness test repeats the invariant with three crashes
# and checks zero goroutine leaks after the runtimes close.
chaos-smoke:
	$(GO) test ./internal/serve -run 'TestRunChaos' -count=1
	rm -rf .chaos-smoke-dir
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl \
		-policy hysteresis -snapshot-dir .chaos-smoke-dir \
		-chaos crash:3 -chaos crash:8 -chaos slow:12:15:0.001 -chaos corrupt:5:nan \
		-verify-recovery -expect-full-replans 4
	rm -rf .chaos-smoke-dir

# Data-plane throughput guard for CI: the CI-sized E27 loopback-cluster
# study (real edgeagent processes over TCP under each replanning policy)
# writing its honest rps and p50/p99 latencies into BENCH_serve.json, with
# the metric keys asserted present.
bench-serve-smoke:
	$(GO) run ./cmd/experiments -run E27 -quick -bench-json BENCH_serve.json \
		-require-metrics E27.rps_never,E27.rps_hysteresis,E27.rps_delta,E27.p50_ms_hysteresis,E27.p99_ms_hysteresis,E27.ok_frac_hysteresis,E27.full_replans_hysteresis

# Live data-plane smoke for CI: boot the wire dispatcher plus one real
# edgeagent process per server on loopback TCP, drive a bounded closed
# loop, and gate on the success fraction and on the handoff path actually
# running (crossed > 0).
cluster-smoke:
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-listen 127.0.0.1:0 -timescale 0.002 -requests 200 -workers 4 -min-ok-frac 0.95
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-listen 127.0.0.1:0 -timescale 0.002 -requests 200 -workers 4 -min-ok-frac 0.95 \
		-stall-clients 2

# Client-library smoke for CI: the internal/client unit suite (handshake
# taxonomy, per-call deadlines, cancellation, typed errors, in-flight
# window) under the race detector.
client-smoke:
	$(GO) test -race -count=1 ./internal/client

# Backpressure stress suite for CI: misbehaving clients (stalled, slow,
# byte-at-a-time, mid-frame disconnect, reconnect storm) against a live
# dispatcher, plus the dispatcher lifecycle regressions, all under -race.
backpressure-stress:
	$(GO) test -race -count=1 -timeout 10m \
		-run 'TestStalled|TestSlowReader|TestByteAtATime|TestMidFrame|TestReconnectStorm|TestCloseWithIdle|TestAgentDeathMidRequest|TestDuplicateHello|TestOutbox|TestNonLoopback' \
		./internal/agent ./internal/cluster

# Regenerate every table and figure of the reconstructed evaluation.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/video-analytics
	$(GO) run ./examples/smart-factory
	$(GO) run ./examples/adaptive-bandwidth
	$(GO) run ./examples/calibrated-pipeline

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
