#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from anywhere; it works from the checkout root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays in
# .bench_build/ at the checkout root. A failed build exits 1 without output
# on standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build/perfbench
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, ignore any user-level go env file, and never fetch modules.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
if ! (cd perfbench && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$build/perfbench" "$@"
