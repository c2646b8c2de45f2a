#!/usr/bin/env bash
# Determinism check, CI's determinism job (mirrored by `make
# determinism`): every row renders one CLI output sequentially and on
# eight workers, and the two must be byte-identical. Worker count is an
# execution detail the determinism contracts (DESIGN.md §9, §12) keep out
# of every report, so any difference is a bug.
#
#   bash scripts/determinism.sh
#
# A row is "name|command", with %d where the worker count goes. A new
# check costs one row.
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS=(
	"ablations|etrain-experiments -ablations -parallel %d"
	"fleet-2k|etrain-fleet -devices 2000 -quiet -workers %d"
	"fleet-diurnal-lte-drx|etrain-fleet -devices 2000 -quiet -diurnal week -time-scale 1008 -radio lte-drx -workers %d"
	"scenario-diurnal-week|etrain-sim run -workers %d scenarios/diurnal-week.yaml"
	"scenario-fault-burst|etrain-sim run -workers %d scenarios/fault-burst.yaml"
)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/" ./cmd/etrain-experiments ./cmd/etrain-fleet ./cmd/etrain-sim

failed=0
for row in "${ROWS[@]}"; do
	name=${row%%|*}
	for workers in 1 8; do
		# The command's words are split on spaces; no argument holds one.
		# shellcheck disable=SC2046
		set -- $(printf "${row#*|}" "$workers")
		"$WORK/$1" "${@:2}" > "$WORK/$name-w$workers.txt"
	done
	if diff -u "$WORK/$name-w1.txt" "$WORK/$name-w8.txt"; then
		echo "ok    $name"
	else
		echo "FAIL  $name: output differs between 1 and 8 workers"
		failed=1
	fi
done
exit "$failed"
