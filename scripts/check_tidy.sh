#!/usr/bin/env bash
# clang-tidy gate with a committed baseline.  Runs the .clang-tidy
# profile over src/ and tools/ translation units (using the compile
# database from build/) and fails only on diagnostics that are not in
# scripts/clang_tidy_baseline.txt -- so enabling a new check never
# requires fixing the whole tree in one PR; pre-existing hits are
# baselined and burned down incrementally.
#
# Environments without clang-tidy (the reference CI image ships only
# g++) print SKIPPED and exit 77, the conventional "skipped" status.
#
#   scripts/check_tidy.sh                   # diff against the baseline
#   scripts/check_tidy.sh --write-baseline  # re-capture the baseline
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=scripts/clang_tidy_baseline.txt

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "check_tidy: SKIPPED (clang-tidy not installed)"
  exit 77
fi
if [ ! -f build/compile_commands.json ]; then
  echo "check_tidy: build/compile_commands.json missing; run cmake -B build -S . first" >&2
  exit 2
fi

# Normalise diagnostics to "path:line [check]" lines: stable across
# column shifts and message-wording changes between LLVM releases.
run_tidy() {
  git ls-files -- 'src/*.cpp' 'tools/*.cpp' \
    | xargs -r clang-tidy -p build --quiet 2>/dev/null \
    | sed -n 's/^\([^ :]*\):\([0-9]*\):[0-9]*: warning: .* \(\[[a-z0-9.,-]*\]\)$/\1:\2 \3/p' \
    | sort -u
}

if [ "${1:-}" = "--write-baseline" ]; then
  run_tidy > "${BASELINE}"
  echo "check_tidy: baseline rewritten ($(wc -l < "${BASELINE}") entries)"
  exit 0
fi

CURRENT="$(mktemp)"
trap 'rm -f "${CURRENT}"' EXIT
run_tidy > "${CURRENT}"

touch "${BASELINE}"
NEW="$(comm -13 <(sort -u "${BASELINE}") "${CURRENT}" || true)"
if [ -n "${NEW}" ]; then
  echo "check_tidy: new clang-tidy diagnostics (not in ${BASELINE}):" >&2
  echo "${NEW}" >&2
  exit 1
fi
echo "check_tidy: OK ($(wc -l < "${CURRENT}") diagnostics, all baselined)"
