#!/usr/bin/env bash
# clang -Wthread-safety gate: Contract 7 in docs/static-analysis.md.
#
# The RG_GUARDED_BY / RG_REQUIRES / rg::Mutex annotations in
# src/common/thread_safety.hpp expand to clang capability attributes, so
# a clang build with -Werror=thread-safety proves every annotated field
# is only touched with its mutex held.  Under g++ the macros expand to
# nothing; environments without clang++ (the reference CI image ships
# only g++) print SKIPPED and exit 77, mirroring scripts/check_tidy.sh.
#
#   scripts/check_thread_safety.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v clang++ >/dev/null 2>&1; then
  echo "check_thread_safety: SKIPPED (clang++ not installed)"
  exit 77
fi

BUILD=build-thread-safety
cmake -B "${BUILD}" -S . \
  -DCMAKE_CXX_COMPILER=clang++ \
  -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" >/dev/null
cmake --build "${BUILD}" -j "${JOBS:-$(nproc)}"
echo "check_thread_safety: OK (clang -Werror=thread-safety build clean)"
