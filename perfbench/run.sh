#!/usr/bin/env bash
# Builds the benchmark from the repository's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-table5 --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, temporary files)
# stays under .bench_build/ at the repository root. The build needs no C
# compiler, and the binary is replaced by a rename, so a run never executes
# a half-written binary.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off GOWORK=off CGO_ENABLED=0
bin="$out/perfbench.$$"
trap 'rm -f "$bin"' EXIT
(cd "$here" && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
trap - EXIT
exec "$out/perfbench" "$@"
