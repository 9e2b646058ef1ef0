#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there with the arguments given:
#
#   bash bench/run.sh                      all four workloads, both passes
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build writes — binary, compiler cache, module cache — stays
# under .bench_build/, so a run touches nothing outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOFLAGS=-modcacherw
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/webtextie-bench" .)
cd "$root"
exec "$build/webtextie-bench" "$@"
