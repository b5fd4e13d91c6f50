#!/usr/bin/env bash
# Build (if needed) and run netdiag-lint against the repository root.
#
# Usage: scripts/netdiag_lint.sh [build-dir]
#
# The checker itself is tools/netdiag_lint.cpp; see its header comment
# for the rule catalogue (R1 determinism layering, R2 kernel purity,
# R4 error-code doc parity, R5 the src/ layer map, R6 socket containment,
# R7 annotated locks). Exit status is the checker's: 0 clean,
# 1 violations, 2 usage/build error.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

if [[ ! -f "${build_dir}/CMakeCache.txt" ]]; then
    cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
cmake --build "${build_dir}" --target netdiag_lint >/dev/null

exec "${build_dir}/netdiag_lint" --root "${repo_root}"
