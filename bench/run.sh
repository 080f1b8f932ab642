#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command, run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source and runs it. Everything the build and
# the run leave behind — Go's build cache included — goes under
# .bench_build/ in the checkout, so nothing outside it is written.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/tmp"

GOCACHE=$build/gocache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config \
GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go build -C "$here" -o "$build/lerabench" .

exec "$build/lerabench" -tmp "$build/tmp" "$@"
