# Local targets. `test`, `race`, `perfbench`, `lint`, `gate` and
# `determinism` run the commands of CI's test, lint, bench-gate and
# determinism jobs (.github/workflows/ci.yml); CI's race run adds
# -count=1, and staticcheck/govulncheck are optional locally (skipped with
# a notice when not installed) where CI always runs them. Every package's
# race-detector run is `make race`, once; the per-feature targets (load,
# chaos, scenario, cluster, overload) hold only the CLI checks that CI's
# job of the same name runs (CI's serve job runs `load`). Every
# workers-1-vs-8 byte-compare is a row of `make determinism`.

GO ?= go

.PHONY: all build test perfbench race fuzz lint vet determinism bench-json gate load chaos scenario cluster overload clean

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

# Load-generation smoke over in-process loopback (CI's serve job): replay
# 1k synthesized devices through the full codec-server-session path and
# report throughput and latency percentiles.
load:
	$(GO) run ./cmd/etrain-load -devices 1000 -conns 16 -horizon 2m

# Resilience smoke (CI's chaos job): a fault-injected load-generation
# run that must complete every session.
chaos:
	$(GO) run ./cmd/etrain-load -devices 200 -conns 16 -horizon 2m -faults 0.1

# Scenario CLI checks (CI's scenario job): the corpus validated through
# the CLI and the broken-Θ negative: overriding Θ to 0 must trip the
# saving-floor assertion and flip the exit code. The fault-burst
# workers-1-vs-8 byte-compare is a row of `make determinism`.
scenario:
	$(GO) build -o /tmp/etrain-sim ./cmd/etrain-sim
	/tmp/etrain-sim validate scenarios/*.yaml
	! /tmp/etrain-sim run -theta 0 scenarios/clean-baseline.yaml >/dev/null

# Cluster smoke (CI's cluster job), the 3-process run: a real controller
# and three race-instrumented etraind shards serve an etrain-load
# -cluster fleet while one shard is SIGKILLed mid-run; every session must
# still complete and the fleet-wide merged stats block must be
# byte-identical to a single-process run of the same fleet.
cluster:
	bash scripts/cluster-smoke.sh

# Overload soak (CI's overload job): a fleet at ~2x the loopback
# server's admission capacity must complete every session, with
# refusals, sheds and budget exhaustions in the ledger.
overload:
	$(GO) run ./cmd/etrain-load -devices 300 -conns 16 -horizon 2m \
		-admission-rate 50 -admission-burst 8 -retry-budget 6 -quiet

# Benchmark regression gate: one fresh run of every benchmark, each
# gated once against the checked-in BENCH_fleet.json baseline through
# cmd/etrain-benchjson -gate. allocs/op and B/op more than GATETOL above
# baseline fail the build, and so do values more than twice GATETOL
# below it, a baseline too stale to see a regression; ns/op is reported
# but never gated (too machine-dependent). Regenerate the baseline with
# `make bench-json` after an intentional allocation change.
GATETOL ?= 0.10
gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count 5 ./... \
		| $(GO) run ./cmd/etrain-benchjson -gate BENCH_fleet.json -tolerance $(GATETOL)

# End-to-end determinism check (CI's determinism job): every row of
# scripts/determinism.sh, each rendered at 1 and 8 workers (connections
# for etrain-load) and byte-compared.
determinism:
	bash scripts/determinism.sh

clean:
	$(GO) clean ./...
	rm -f /tmp/etrain-sim
