#!/usr/bin/env bash
# Builds the recovery benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash recoverybench/run.sh --workload att-failover --seed 1 --seconds 20 --trace 0
#   bash recoverybench/run.sh compare BASE_DIR HEAD_DIR
#
# The build cache, binary, scratch files and traces all stay under
# .bench_build/recoverybench in the repository root; nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/recoverybench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/recoverybench" && go build -o "$out/recoverybench" .) >&2

cd "$root"
exec "$out/recoverybench" "$@"
