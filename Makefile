# Local targets. `test`, `race`, `perfbench`, `lint`, `gate` and
# `determinism` run the commands of CI's test, lint, bench-gate and
# determinism jobs (.github/workflows/ci.yml); CI's race run adds
# -count=1, and staticcheck/govulncheck are optional locally (skipped with
# a notice when not installed) where CI always runs them. The per-feature
# targets (fleet-smoke, serve, chaos, scenario, diurnal, cluster, overload)
# re-run their packages' tests under the race detector, which CI does only
# once, in the test job's race step; their CLI checks are what CI's job of
# the same name runs (for serve, the `load` target's command).

GO ?= go

.PHONY: all build test perfbench race fuzz lint vet determinism bench-json bench-server bench-cluster gate fleet-smoke serve load chaos scenario diurnal cluster overload clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Benchmark harness check, also a step of CI's test job: _perfbench is
# its own module outside ./..., so build, vet and smoke-test it here (about
# 2 s, writes no files).
perfbench:
	$(GO) -C _perfbench vet .
	$(GO) -C _perfbench test .

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test ./internal/tracefile -run Fuzz
	$(GO) test ./internal/wire -run Fuzz
	$(GO) test ./internal/scenario -run Fuzz

vet:
	$(GO) vet ./...

# lint = go vet + gofmt (any file `gofmt -l` lists fails) + the project
# analyzer suite (notime, norand, maporder, units, ctxloop, hotalloc,
# errflow, wirecanon), plus staticcheck/govulncheck when available.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/etrain-vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# Machine-readable benchmark snapshot: every benchmark (including
# BenchmarkFleet10k) through cmd/etrain-benchjson into BENCH_fleet.json
# (name -> ns/op, B/op, allocs/op). Each benchmark runs 5 times for
# BENCHTIME and benchjson keeps each field's median, so the snapshot and
# the gate record steady state, not first use; an op longer than
# BENCHTIME runs once per count.
BENCHTIME ?= 100ms
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count 5 ./... \
		| $(GO) run ./cmd/etrain-benchjson > BENCH_fleet.json
	@echo "wrote BENCH_fleet.json"

# Fleet engine end-to-end check: a 2k-device population at 1 and 8
# workers must render byte-identical reports (CI's fleet job), and the
# checkpoint/resume tests must hold under the race detector.
fleet-smoke:
	$(GO) build -o /tmp/etrain-fleet ./cmd/etrain-fleet
	/tmp/etrain-fleet -devices 2000 -workers 1 -quiet > /tmp/etrain-fleet-w1.txt
	/tmp/etrain-fleet -devices 2000 -workers 8 -quiet > /tmp/etrain-fleet-w8.txt
	diff -u /tmp/etrain-fleet-w1.txt /tmp/etrain-fleet-w8.txt
	$(GO) test -race ./internal/fleet -run 'Halt|Resume|Checkpoint' -count=1

# Service-layer checks: the wire/in-process equivalence suite, the
# 1k-device loopback soak and the graceful-drain tests under the race
# detector. CI's serve job runs the `load` target's command.
serve:
	$(GO) test -race ./internal/wire -count=1
	$(GO) test -race ./internal/server -run 'Equivalence|Soak|Drain|Shutdown' -count=1

# Load-generation smoke over in-process loopback: replay 1k synthesized
# devices through the full codec-server-session path and report
# throughput and latency percentiles.
load:
	$(GO) run ./cmd/etrain-load -devices 1000 -conns 16 -horizon 2m

# Resilience suite: the fault injector and the self-healing client under
# the race detector (including the chaos soak — fault-injected fleets must
# produce decision streams identical to clean loopback), the server's
# resume/park/drain tests, and a fault-injected load-generation run that
# must complete every session (CI's chaos job).
chaos:
	$(GO) test -race ./internal/faultnet ./internal/client -count=1
	$(GO) test -race ./internal/server -run 'Resume|Retain|Shutdown|Drain|Protocol' -count=1
	$(GO) run ./cmd/etrain-load -devices 200 -conns 16 -horizon 2m -faults 0.1

# Scenario engine checks: the declarative scenario suite under the race
# detector (the golden corpus is pinned byte-for-byte at two worker
# counts), then CI's scenario job — the corpus validated through the CLI,
# the fault-burst scenario byte-compared across worker counts, and the
# broken-Θ negative: overriding Θ to 0 must trip the saving-floor
# assertion and flip the exit code.
scenario:
	$(GO) test -race ./internal/scenario -count=1
	$(GO) build -o /tmp/etrain-sim ./cmd/etrain-sim
	/tmp/etrain-sim validate scenarios/*.yaml
	/tmp/etrain-sim run -workers 1 scenarios/fault-burst.yaml > /tmp/etrain-scenario-w1.txt
	/tmp/etrain-sim run -workers 8 scenarios/fault-burst.yaml > /tmp/etrain-scenario-w8.txt
	diff -u /tmp/etrain-scenario-w1.txt /tmp/etrain-scenario-w8.txt
	! /tmp/etrain-sim run -theta 0 scenarios/clean-baseline.yaml >/dev/null

# Diurnal + radio suite: the workload-curve and radio packages under the
# race detector plus the fleet/scenario diurnal determinism tests, then
# CI's diurnal job — the byte-compare smokes: a week-compressed
# 2k-device diurnal fleet under LTE DRX and the diurnal-week scenario
# must render identically at 1 and 8 workers.
diurnal:
	$(GO) test -race ./internal/diurnal ./internal/radio -count=1
	$(GO) test -race ./internal/fleet ./internal/scenario -run Diurnal -count=1
	$(GO) build -o /tmp/etrain-fleet ./cmd/etrain-fleet
	/tmp/etrain-fleet -devices 2000 -workers 1 -quiet -diurnal week -time-scale 1008 -radio lte-drx > /tmp/etrain-diurnal-w1.txt
	/tmp/etrain-fleet -devices 2000 -workers 8 -quiet -diurnal week -time-scale 1008 -radio lte-drx > /tmp/etrain-diurnal-w8.txt
	diff -u /tmp/etrain-diurnal-w1.txt /tmp/etrain-diurnal-w8.txt
	$(GO) build -o /tmp/etrain-sim ./cmd/etrain-sim
	/tmp/etrain-sim run -workers 1 scenarios/diurnal-week.yaml > /tmp/etrain-diurnal-scen-w1.txt
	/tmp/etrain-sim run -workers 8 scenarios/diurnal-week.yaml > /tmp/etrain-diurnal-scen-w8.txt
	diff -u /tmp/etrain-diurnal-scen-w1.txt /tmp/etrain-diurnal-scen-w8.txt

# Cluster suite: the control-plane package under the race detector —
# ring determinism and ~1/N movement, controller membership/drain/sweep,
# the in-process failover zero-decision-loss test — then CI's cluster
# job, the 3-process smoke: a real controller and three race-instrumented
# etraind shards serve an etrain-load -cluster fleet while one shard is
# SIGKILLed mid-run; every session must still complete and the
# fleet-wide merged stats block must be byte-identical to a
# single-process run of the same fleet.
cluster:
	$(GO) test -race ./internal/cluster -count=1
	bash scripts/cluster-smoke.sh

# Overload-survivability suite: admission control and deadline-aware
# shedding in the server, the client's retry budget and Busy handling,
# controller snapshot/restore (including the crash-restart recovery test
# and the thundering-herd shard-kill chaos test), all under the race
# detector, and the overload-burst golden — then CI's overload job, an
# overload soak: a fleet at ~2x the loopback server's admission capacity
# must complete every session, with refusals, sheds and budget
# exhaustions in the ledger.
overload:
	$(GO) test -race ./internal/server -run 'Admission|TokenBucket|Busy|Shed' -count=1
	$(GO) test -race ./internal/client -run 'Busy|Budget|PermanentRefusal' -count=1
	$(GO) test -race ./internal/cluster -run 'Snapshot|Restore|Rejoin|RestartRecovery|Overload|ThunderingHerd' -count=1
	$(GO) test ./internal/scenario -run 'TestGoldenScenarios/overload-burst' -count=1
	$(GO) run ./cmd/etrain-load -devices 300 -conns 16 -horizon 2m \
		-admission-rate 50 -admission-burst 8 -retry-budget 6 -quiet

# Cluster benchmark snapshot: the ring and fleet-fold microbenchmarks
# plus a live 3-shard failover smoke folded in under the "load" key, so
# BENCH_cluster.json records cluster throughput, reroutes and
# failover-recovery latency percentiles alongside allocation counts.
bench-cluster:
	CLUSTER_JSON=/tmp/etrain-cluster-report.json bash scripts/cluster-smoke.sh >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkRingOwner|BenchmarkBuildRing|BenchmarkFleetStatsAdd' -benchmem \
		-benchtime $(BENCHTIME) -count 5 ./internal/cluster \
		| $(GO) run ./cmd/etrain-benchjson -load /tmp/etrain-cluster-report.json > BENCH_cluster.json
	@echo "wrote BENCH_cluster.json"

# Service-layer benchmark snapshot (BenchmarkServerThroughput +
# BenchmarkWireCodec) through cmd/etrain-benchjson into BENCH_server.json,
# with a fault-injected load soak folded in under the "load" key so the
# snapshot records healing behavior alongside the microbenchmarks.
bench-server:
	$(GO) run ./cmd/etrain-load -devices 300 -conns 16 -horizon 2m \
		-faults 0.1 -quiet -json /tmp/etrain-load-report.json >/dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkServerThroughput|BenchmarkWireCodec' -benchmem \
		-benchtime $(BENCHTIME) -count 5 ./internal/server ./internal/wire \
		| $(GO) run ./cmd/etrain-benchjson -load /tmp/etrain-load-report.json > BENCH_server.json
	@echo "wrote BENCH_server.json"

# Benchmark regression gate: fresh runs of the fleet and server benchmark
# suites are diffed against the checked-in BENCH_*.json baselines through
# cmd/etrain-benchjson -gate. allocs/op and B/op more than GATETOL above
# baseline fail the build; ns/op is reported but never gated (too
# machine-dependent). Regenerate the baselines with `make bench-json
# bench-server` after an intentional allocation change.
GATETOL ?= 0.10
gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count 5 ./... \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_fleet.json -tolerance $(GATETOL)
	$(GO) test -run '^$$' -bench 'BenchmarkServerThroughput|BenchmarkWireCodec' -benchmem \
		-benchtime $(BENCHTIME) -count 5 ./internal/server ./internal/wire \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_server.json -tolerance $(GATETOL)
	$(GO) test -run '^$$' -bench 'BenchmarkRingOwner|BenchmarkBuildRing|BenchmarkFleetStatsAdd' -benchmem \
		-benchtime $(BENCHTIME) -count 5 ./internal/cluster \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_cluster.json -tolerance $(GATETOL)

# End-to-end determinism check: full registry, sequential vs 8 workers,
# byte-compared (CI's determinism job).
determinism:
	$(GO) build -o /tmp/etrain-experiments ./cmd/etrain-experiments
	/tmp/etrain-experiments -parallel 1 -ablations > /tmp/etrain-seq.txt
	/tmp/etrain-experiments -parallel 8 -ablations > /tmp/etrain-par.txt
	diff -u /tmp/etrain-seq.txt /tmp/etrain-par.txt

clean:
	$(GO) clean ./...
	rm -f /tmp/etrain-experiments /tmp/etrain-seq.txt /tmp/etrain-par.txt
	rm -f /tmp/etrain-fleet /tmp/etrain-fleet-w1.txt /tmp/etrain-fleet-w8.txt
	rm -f /tmp/etrain-load-report.json /tmp/etrain-cluster-report.json
	rm -f /tmp/etrain-sim /tmp/etrain-scenario-w1.txt /tmp/etrain-scenario-w8.txt
	rm -f /tmp/etrain-diurnal-w1.txt /tmp/etrain-diurnal-w8.txt
	rm -f /tmp/etrain-diurnal-scen-w1.txt /tmp/etrain-diurnal-scen-w8.txt
