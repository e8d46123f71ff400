#!/usr/bin/env bash
# Vectorization gate for the batched lane kernels.
#
# Every function src/dynamics marks RG_LANES_CLONES is compiled once per
# ISA, and AVX-512 hosts run its x86-64-v4 clone.  An outlined lane kernel
# stays bit-identical, so no test notices when GCC stops inlining it into
# the lane loop and the 8-wide math quietly turns scalar.  This gate
# disassembles the v4 clone of each such function in librg_dynamics.a and
# fails if the clone contains a call (the kernel was outlined) or no zmm
# instruction (the lane loop did not vectorize 8 wide).
#
#   scripts/check_vectorized.sh [build-dir]     # default: build
#
# Exits 77 (SKIPPED) without objdump, or when the library carries no
# clones (clang, sanitizer builds, non-x86 hosts).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
LIB="${BUILD}/src/dynamics/librg_dynamics.a"

if ! command -v objdump >/dev/null 2>&1; then
  echo "check_vectorized: SKIPPED (objdump not installed)"
  exit 77
fi
if [ ! -f "${LIB}" ]; then
  echo "check_vectorized: ${LIB} not found; build rg_dynamics first" >&2
  exit 1
fi

DISASM="$(objdump -d --no-show-raw-insn "${LIB}")"
if ! grep -q '\.arch_x86_64_v4>:$' <<<"${DISASM}"; then
  echo "check_vectorized: SKIPPED (no x86-64-v4 clones in ${LIB})"
  exit 77
fi

mapfile -t FUNCS < <(grep -ohE 'RG_LANES_CLONES void [A-Za-z0-9_]+' src/dynamics/*.cpp |
                     awk '{print $3}' | sort -u)
if [ "${#FUNCS[@]}" -eq 0 ]; then
  echo "check_vectorized: no RG_LANES_CLONES function found in src/dynamics" >&2
  exit 1
fi

status=0
for fn in "${FUNCS[@]}"; do
  # Itanium mangling spells the name as <length><name>, followed by E
  # where the nested name ends.
  body="$(awk -v pat="${#fn}${fn}E.*[.]arch_x86_64_v4>:$" '
    /^[0-9a-f]+ </ { inside = ($0 ~ pat); next }
    inside && NF { print }' <<<"${DISASM}")"
  if [ -z "${body}" ]; then
    echo "FAIL ${fn}: no x86-64-v4 clone"
    status=1
    continue
  fi
  insns="$(wc -l <<<"${body}")"
  calls="$(grep -cE '[[:space:]]call' <<<"${body}" || true)"
  zmm="$(grep -c 'zmm' <<<"${body}" || true)"
  if [ "${calls}" -ne 0 ]; then
    echo "FAIL ${fn}: ${calls} call(s) in the x86-64-v4 clone (lane kernel outlined)"
    status=1
  elif [ "${zmm}" -eq 0 ]; then
    echo "FAIL ${fn}: no zmm instruction in the x86-64-v4 clone (lane loop not 8 wide)"
    status=1
  else
    echo "ok   ${fn}: ${insns} instructions, ${zmm} on zmm, no calls"
  fi
done
exit "${status}"
