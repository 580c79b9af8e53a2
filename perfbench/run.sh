#!/usr/bin/env bash
# Builds the benchmark and the spmv-serve daemon from source, then runs
# the benchmark with the given arguments. Everything the build and the
# runs write stays under .bench_build/ in the repository root.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
# The benchmark and the daemon run at the program's defaults.
for v in $(env | sed -n 's/^\(SPMV_[A-Za-z0-9_]*\)=.*/\1/p'); do unset "$v"; done
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
(cd "$root" && go build -o "$build/bin/spmv-serve" ./cmd/spmv-serve) >&2
exec "$build/bin/perfbench" --root "$root" "$@"
