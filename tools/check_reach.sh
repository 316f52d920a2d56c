#!/usr/bin/env bash
# Reach check: every function src/ defines must be reached by a product
# binary, or be named in tools/reach_allowlist.txt with a reason.
#
#   tools/check_reach.sh [build-dir]      (default: build/reach)
#
# Every executable in the build tree counts, so give it a tree of its own: an
# executable left behind by a deleted target would still count as a reach.
#
# Product binaries are the executables under tools/, bench/ and examples/:
# the tools, the paper benches, the examples and the perf harnesses
# (bench/perf_simulator, bench/e2e's adc_bench and layer_bench). The
# executables under tests/ are the tests.
#
# The script configures its own tree at -O0 with one function per section
# (-ffunction-sections -fdata-sections) and links with --gc-sections, so a
# binary keeps exactly the functions its call graph reaches. It then compares
# the demangled global text symbols (`nm` type T) of src/*/*.a with the
# symbols left in each binary. The flags sit on this script's cmake line;
# no CMake option or preset carries them.
#
# Why -O0: an optimized build inlines small reached functions (reset_state,
# close_send_queue, FftPlan::forward, ...) into their callers, drops their
# out-of-line copies, and would report them as dead. With gcc 12 at -O3,
# 31 reached functions looked unreached when this script was written.
#
# NDEBUG stays defined: without it adc_bench returns at the top of main, the
# compiler drops the code after that return, and a Debug tree would report
# what only adc_bench calls (ScenarioService::counters) as unreached. The
# contract checks are forced on, as every Debug build of the product runs
# them, so contract_failed counts as reached.
#
# Exit 1 when a function reaches no product binary and is not allowlisted,
# when an allowlist entry is reached by a product binary, or when it names a
# function that no test reaches or that src/ no longer defines. Exit 2 when
# the build fails.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=${1:-$root/build/reach}
allowlist=$root/tools/reach_allowlist.txt

mkdir -p "$build"
log=$build/check_reach_build.log
if ! { cmake -S "$root" -B "$build" -G Ninja \
         -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS_RELEASE="-O0 -DNDEBUG -DADC_ENABLE_CONTRACTS=1" \
         -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
         -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" &&
       cmake --build "$build" -j; } >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "check_reach: the build failed (full log: $log)" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names of the global functions a file defines.
defined_functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 == "T" { sub(/^[0-9a-f]+ T /, ""); print }' | sort -u
}

libs=$(find "$build/src" -name 'libadc_*.a' | sort)
[ -n "$libs" ] || { echo "check_reach: no libraries under $build/src" >&2; exit 2; }
# shellcheck disable=SC2086
defined_functions $libs >"$work/library"

mapfile -t products < <(find "$build/tools" "$build/bench" "$build/examples" \
                          -maxdepth 2 -type f -perm -u+x | sort)
mapfile -t tests < <(find "$build/tests" -maxdepth 1 -type f -perm -u+x | sort)
[ "${#products[@]}" -gt 0 ] && [ "${#tests[@]}" -gt 0 ] ||
  { echo "check_reach: found no product or no test binaries under $build" >&2; exit 2; }

defined_functions "${products[@]}" | comm -12 - "$work/library" >"$work/product"
defined_functions "${tests[@]}" | comm -12 - "$work/library" >"$work/test"
comm -23 "$work/library" "$work/product" >"$work/unreached"

# Allowlist lines are `<demangled function>  # <reason>`.
{ grep -v '^[[:space:]]*\(#\|$\)' "$allowlist" || true; } |
  sed 's/[[:space:]]*#.*$//' | sort -u >"$work/allowed"

fail=0
report() {  # title, file
  if [ -s "$2" ]; then
    echo "$1"
    sed 's/^/  /' "$2"
    fail=1
  fi
}
comm -23 "$work/unreached" "$work/allowed" >"$work/unlisted"
comm -12 "$work/unlisted" "$work/test" >"$work/unlisted_test"
comm -23 "$work/unlisted" "$work/test" >"$work/unlisted_dead"
report "Reached only by tests (delete it, move it into tests/, or allowlist it):" \
  "$work/unlisted_test"
report "Reached by no binary (delete it):" "$work/unlisted_dead"
comm -12 "$work/allowed" "$work/product" >"$work/allowed_product"
report "Allowlisted but reached by a product binary (drop the entry):" \
  "$work/allowed_product"
comm -23 "$work/allowed" "$work/library" >"$work/allowed_gone"
report "Allowlisted but not defined in src/ (drop or rename the entry):" \
  "$work/allowed_gone"
comm -23 "$work/allowed" "$work/test" | comm -12 - "$work/library" >"$work/allowed_dead"
report "Allowlisted but reached by no test (delete the function):" \
  "$work/allowed_dead"

echo "check_reach: $(wc -l <"$work/library") library functions," \
  "${#products[@]} product and ${#tests[@]} test binaries," \
  "$(wc -l <"$work/unreached") reached only by tests or by nothing," \
  "$(wc -l <"$work/allowed") allowlisted"
exit "$fail"
