#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare <a.json> <b.json>
# Build outputs, the Go build cache and run artefacts stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
