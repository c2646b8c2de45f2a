#!/usr/bin/env bash
# Determinism check, CI's determinism job (mirrored by `make
# determinism`): every row renders one CLI output sequentially and on
# eight workers, and the two must be byte-identical. Worker count is an
# execution detail the determinism contracts (DESIGN.md §9, §10, §12) keep
# out of every report, so any difference is a bug.
#
#   bash scripts/determinism.sh
#
# A row is "name|command" or "name|command|filter", with %d where the
# worker count goes. A filter is a grep -E pattern: only the output lines
# it matches are compared, for commands that also print wall-clock
# figures. A new check costs one row.
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS=(
	"ablations|etrain-experiments -ablations -parallel %d"
	"fleet-2k|etrain-fleet -devices 2000 -quiet -workers %d"
	# One 200-device shard: its devices spread over all eight workers, and
	# the shard folds only when the last of them finishes.
	"fleet-1shard|etrain-fleet -devices 200 -quiet -workers %d"
	# 286 shards of 7 devices: at eight workers they finish out of shard
	# order, and each waits for the shards before it to fold.
	"fleet-small-shards|etrain-fleet -devices 2000 -shard-size 7 -quiet -workers %d"
	"fleet-diurnal-lte-drx|etrain-fleet -devices 2000 -quiet -diurnal week -time-scale 1008 -radio lte-drx -workers %d"
	"scenario-diurnal-week|etrain-sim run -workers %d scenarios/diurnal-week.yaml"
	"scenario-fault-burst|etrain-sim run -workers %d scenarios/fault-burst.yaml"
	# The fleet block folds per-session snapshots in device-index order, so
	# state leaking between pooled sessions that run at once shows as a diff.
	"serve-load|etrain-load -devices 1000 -horizon 2m -quiet -conns %d|^fleet"
)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/" ./cmd/etrain-experiments ./cmd/etrain-fleet ./cmd/etrain-load ./cmd/etrain-sim

failed=0
for row in "${ROWS[@]}"; do
	IFS='|' read -r name cmd filter <<<"$row"
	for workers in 1 8; do
		# The command's words are split on spaces; no argument holds one.
		# shellcheck disable=SC2046
		set -- $(printf "$cmd" "$workers")
		if [ -n "$filter" ]; then
			"$WORK/$1" "${@:2}" | grep -E "$filter" > "$WORK/$name-w$workers.txt"
		else
			"$WORK/$1" "${@:2}" > "$WORK/$name-w$workers.txt"
		fi
	done
	if diff -u "$WORK/$name-w1.txt" "$WORK/$name-w8.txt"; then
		echo "ok    $name"
	else
		echo "FAIL  $name: output differs between 1 and 8 workers"
		failed=1
	fi
done
exit "$failed"
