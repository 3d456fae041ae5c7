#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload chase-cont --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build cache, binary and trace output
# all stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
