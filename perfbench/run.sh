#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files stay inside the checkout, under .perfbench-build
# and .perfbench-work.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" ]]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi
build="$root/.perfbench-build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
