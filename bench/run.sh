#!/usr/bin/env bash
# run.sh — the repo benchmark's one command (see bench/README.md).
#
#   bench/run.sh [--seed N]              all four workloads, every end-to-end metric
#   bench/run.sh --trace [--seed N]      the traced run: spans + the per-layer ladder
#   bench/run.sh --quick                 <= 20 s smoke run on the small fixture
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one workload, as BENCHMARK.json's driver calls it
#   bench/run.sh compare A.json B.json [--pairs N]
#
# It builds cmd/phrasemine, cmd/datagen and the benchmark's own binaries
# from the working tree into .bench_build/ (Go build cache included, so
# nothing outside the checkout is written), lets the driver build the
# fixtures with the CLI, and runs the driver with GOMAXPROCS=1 so the
# server child keeps the other core(s) to itself.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOTMPDIR=$build/tmp

trace=0
for arg in "$@"; do
	case $arg in --trace | -trace | --trace=1) trace=1 ;; esac
done
prev=
for arg in "$@"; do
	if [[ $prev == --trace || $prev == -trace ]] && [[ $arg == 0 ]]; then trace=0; fi
	prev=$arg
done

# One build at a time per checkout; the binaries are only replaced when
# the sources changed (go build is a no-op otherwise).
exec 9>"$build/lock"
flock 9
go build -o "$build/bin/" ./cmd/phrasemine ./cmd/datagen
(cd bench && go build -o "$build/bin/" ./driver ./compare)
if [[ $trace == 1 ]]; then
	# Only the ladder imports internal/...; a refactor that removes a layer
	# breaks this build, not the end-to-end run above.
	(cd bench && go build -o "$build/bin/" ./ladder)
fi
if [[ ${1:-} == compare ]]; then
	shift
	flock -u 9
	exec "$build/bin/compare" "$@"
fi
# Fixtures are built under the same lock, by the CLI the line above built.
"$build/bin/driver" --bin "$build/bin" --fixtures "$build/fixtures" --prepare
flock -u 9

exec env GOMAXPROCS=1 "$build/bin/driver" --bin "$build/bin" --fixtures "$build/fixtures" --out bench/out "$@"
