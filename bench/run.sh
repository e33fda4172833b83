#!/usr/bin/env bash
# Entry point of the benchmark, run from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the load generator from source into .bench_build/ (nothing is read or
# written outside the checkout, the go build cache included) and runs it. With
# no --workload it runs all four, traced and untraced; see bench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/rpcscale-bench" .) >&2
cd "$root"
exec "$build/rpcscale-bench" "$@"
