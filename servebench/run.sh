#!/usr/bin/env bash
# Builds the serving benchmark (first use only; later runs rebuild what
# changed) and runs one workload:
#
#   bash servebench/run.sh --workload wire_fleet --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the run's
# JSON result. Everything is built under .bench_build/ at the root of the
# checkout. The self-tests run once after every build that relinks them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

{
    if [[ ! -f "$build/CMakeCache.txt" ]]; then
        generator=()
        if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
        cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" -j "$(nproc)"
    if [[ ! -f "$build/selftest.passed" || "$build/servebench_selftest" -nt "$build/selftest.passed" ]]; then
        "$build/servebench_selftest"
        touch "$build/selftest.passed"
    fi
} 1>&2

mkdir -p "$build/traces"
exec "$build/servebench" "$@" --trace-dir "$build/traces"
