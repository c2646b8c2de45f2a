# Local targets mirror .github/workflows/ci.yml one to one, so what passes
# here passes there. staticcheck/govulncheck are optional locally (skipped
# with a notice when not installed); CI always runs them.

GO ?= go

.PHONY: all build test perfbench race fuzz lint vet determinism bench-json bench-server bench-cluster gate fleet-smoke serve load chaos scenario diurnal cluster overload clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Benchmark harness check, same as the CI test job's step: _perfbench is
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
# BenchmarkFleet10k) once through cmd/etrain-benchjson into
# BENCH_fleet.json (name -> ns/op, B/op, allocs/op). Raise BENCHTIME for
# steadier numbers.
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/etrain-benchjson > BENCH_fleet.json
	@echo "wrote BENCH_fleet.json"

# Fleet engine end-to-end check, same as the CI fleet job: a 2k-device
# population at 1 and 8 workers must render byte-identical reports, and
# the checkpoint/resume tests must hold under the race detector.
fleet-smoke:
	$(GO) build -o /tmp/etrain-fleet ./cmd/etrain-fleet
	/tmp/etrain-fleet -devices 2000 -workers 1 -quiet > /tmp/etrain-fleet-w1.txt
	/tmp/etrain-fleet -devices 2000 -workers 8 -quiet > /tmp/etrain-fleet-w8.txt
	diff -u /tmp/etrain-fleet-w1.txt /tmp/etrain-fleet-w8.txt
	$(GO) test -race ./internal/fleet -run 'Halt|Resume|Checkpoint' -count=1

# Service-layer checks, same as the CI serve job: the wire/in-process
# equivalence suite, the 1k-device loopback soak and the graceful-drain
# tests under the race detector.
serve:
	$(GO) test -race ./internal/wire -count=1
	$(GO) test -race ./internal/server -run 'Equivalence|Soak|Drain|Shutdown' -count=1

# Load-generation smoke over in-process loopback: replay 1k synthesized
# devices through the full codec-server-session path and report
# throughput and latency percentiles.
load:
	$(GO) run ./cmd/etrain-load -devices 1000 -conns 16 -horizon 2m

# Resilience suite, same as the CI chaos job: the fault injector and the
# self-healing client under the race detector (including the chaos soak —
# fault-injected fleets must produce decision streams identical to clean
# loopback), the server's resume/park/drain tests, and a fault-injected
# load-generation run that must complete every session.
chaos:
	$(GO) test -race ./internal/faultnet ./internal/client -count=1
	$(GO) test -race ./internal/server -run 'Resume|Retain|Shutdown|Drain|Protocol' -count=1
	$(GO) run ./cmd/etrain-load -devices 200 -conns 16 -horizon 2m -faults 0.1

# Scenario engine checks, same as the CI scenario job: the declarative
# scenario suite under the race detector (the golden corpus is pinned
# byte-for-byte at two worker counts), the corpus validated through the
# CLI, the chaos-soak scenario byte-compared across worker counts, and
# the broken-Θ negative — overriding Θ to 0 must trip the saving-floor
# assertion and flip the exit code.
scenario:
	$(GO) test -race ./internal/scenario -count=1
	$(GO) build -o /tmp/etrain-sim ./cmd/etrain-sim
	/tmp/etrain-sim validate scenarios/*.yaml
	/tmp/etrain-sim run -workers 1 scenarios/fault-burst.yaml > /tmp/etrain-scenario-w1.txt
	/tmp/etrain-sim run -workers 8 scenarios/fault-burst.yaml > /tmp/etrain-scenario-w8.txt
	diff -u /tmp/etrain-scenario-w1.txt /tmp/etrain-scenario-w8.txt
	! /tmp/etrain-sim run -theta 0 scenarios/clean-baseline.yaml >/dev/null

# Diurnal + radio suite, same as the CI diurnal job: the workload-curve
# and DRX packages under the race detector plus the fleet/scenario
# diurnal determinism tests, then the byte-compare smokes — a
# week-compressed 2k-device diurnal fleet under LTE DRX and the
# diurnal-week scenario must render identically at 1 and 8 workers.
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

# Cluster suite, same as the CI cluster job: the control-plane package
# under the race detector — ring determinism and ~1/N movement,
# controller membership/drain/sweep, the in-process failover
# zero-decision-loss test — then the 3-process smoke: a real controller
# and three race-instrumented etraind shards serve an etrain-load
# -cluster fleet while one shard is SIGKILLed mid-run; every session
# must still complete and the fleet-wide merged stats block must be
# byte-identical to a single-process run of the same fleet.
cluster:
	$(GO) test -race ./internal/cluster -count=1
	bash scripts/cluster-smoke.sh

# Overload-survivability suite, same as the CI overload job: admission
# control and deadline-aware shedding in the server, the client's retry
# budget and Busy handling, controller snapshot/restore (including the
# crash-restart recovery test and the thundering-herd shard-kill chaos
# test), all under the race detector — then an overload soak: a fleet at
# ~2x the loopback server's admission capacity must complete every
# session, with refusals, sheds and budget exhaustions in the ledger.
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
		-benchtime $(BENCHTIME) ./internal/cluster \
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
		-benchtime $(BENCHTIME) ./internal/server ./internal/wire \
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
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_fleet.json -tolerance $(GATETOL)
	$(GO) test -run '^$$' -bench 'BenchmarkServerThroughput|BenchmarkWireCodec' -benchmem \
		-benchtime $(BENCHTIME) ./internal/server ./internal/wire \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_server.json -tolerance $(GATETOL)
	$(GO) test -run '^$$' -bench 'BenchmarkRingOwner|BenchmarkBuildRing|BenchmarkFleetStatsAdd' -benchmem \
		-benchtime $(BENCHTIME) ./internal/cluster \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_cluster.json -tolerance $(GATETOL)

# End-to-end determinism check: full registry, sequential vs 8 workers,
# byte-compared — same as the CI determinism job.
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
