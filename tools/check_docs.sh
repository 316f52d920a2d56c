#!/usr/bin/env bash
# Doc citation check: every repository path a doc cites must exist.
#
#   tools/check_docs.sh
#
# The docs are every tracked Markdown file below the root, the root's
# README, DESIGN, EXPERIMENTS and ROADMAP, and the `description` string of
# every scenario spec under scenarios/ (a report carries it verbatim). The
# root's other Markdown files are records (the change log, the paper's
# abstract, related work and code from other repositories): they cite deleted
# code and other trees by design.
#
# A citation is a token that starts with one of the tree's top-level
# directories (src/, tests/, bench/, ...), or a bare root file in capitals
# such as `BENCHMARK.json` written in backticks. It resolves when:
#   - it names a tracked file or a directory holding one;
#   - it is a pattern (`*`, `<name>` or `{a,b}`) that matches a tracked file;
#   - it names a binary by its source, `bench/corners_pvt` for
#     bench/corners_pvt.cpp;
#   - it is a build output `build/[<preset>/]<dir>/<name>` and <dir>/<name>.cpp
#     exists or <dir>/CMakeLists.txt declares the target <name>;
#   - it is on the GENERATED list below: what a build, a test or a run
#     writes, which no checkout holds.
#
# Exit 1 lists each stale citation as file:line. Exit 0 prints the counts.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

ROOT_DOCS=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md)

# Generated artifacts, as shell patterns over the cited path.
GENERATED=(
  'BENCH_*.json'         # benchmark results that tools/run_bench.sh and bench/e2e write
  'build/reach'          # the tree tools/check_reach.sh builds by default
  'build/include_graph.json'  # lint_physics --include-graph output
  '*.a'                  # static libraries of a build tree
)

# The files a commit of the working tree would hold, and their directories.
declare -A tracked=()
while IFS= read -r f; do
  [[ -e $f ]] || continue
  tracked[$f]=1
  d=$f
  while [[ $d == */* ]]; do
    d=${d%/*}
    tracked[$d]=1
  done
done < <(git ls-files --cached --others --exclude-standard)

presets=$(grep -o -E '"name": *"[^"]+"' CMakePresets.json | sed -E 's/.*"([^"]+)"$/\1/')

# True when the shell pattern $1 matches a tracked path.
matches_tracked() {
  local p
  for p in "${!tracked[@]}"; do
    # shellcheck disable=SC2053  # $1 is a pattern on purpose
    [[ $p == $1 ]] && return 0
  done
  return 1
}

generated() {
  local g
  for g in "${GENERATED[@]}"; do
    # shellcheck disable=SC2053
    [[ $1 == $g ]] && return 0
  done
  return 1
}

# True when <dir>/<name> is a binary: its source exists or its directory's
# CMakeLists.txt declares the target.
is_binary() {
  local path=$1 dir=. name=${1##*/}
  [[ -n ${tracked[$path.cpp]:-} ]] && return 0
  [[ $path == */* ]] && dir=${path%/*}
  [[ -f $dir/CMakeLists.txt ]] || return 1
  grep -q -E "\(${name}[ )]" "$dir/CMakeLists.txt"
}

resolves() {
  local p=$1 first
  generated "$p" && return 0
  if [[ $p == build || $p == build/* ]]; then
    p=${p#build}
    p=${p#/}
    first=${p%%/*}
    if [[ -n $first ]] && grep -q -x -F "$first" <<<"$presets"; then
      p=${p#"$first"}
      p=${p#/}
    fi
    [[ -z $p ]] && return 0
    generated "$p" && return 0
  fi
  [[ -n ${tracked[$p]:-} ]] && return 0
  if [[ $p == *[*\<{]* ]]; then
    # <placeholder> and {a,b} become wildcards.
    p=$(sed -E 's/<[^>]*>/*/g; s/\{[^}]*\}/*/g' <<<"$p")
    matches_tracked "$p" && return 0
    return 1
  fi
  is_binary "$p"
}

mapfile -t docs < <({
  printf '%s\n' "${!tracked[@]}" | grep -E '/.*\.md$'
  for f in "${ROOT_DOCS[@]}"; do [[ -n ${tracked[$f]:-} ]] && echo "$f"; done
  printf '%s\n' "${!tracked[@]}" | grep -E '^scenarios/[^/]*\.json$'
} | sort)

dirs='src|tests|bench|examples|tools|docs|scenarios|build|\.github|\.claude'

# The text of a doc that may cite paths: all of a Markdown file; of a
# scenario spec, its description line, with every other line blanked so that
# line numbers still point into the file.
citing_text() {
  if [[ $1 == *.json ]]; then
    awk '{ print (/^[[:space:]]*"description"[[:space:]]*:/ ? $0 : "") }' "$1"
  else
    cat "$1"
  fi
}

checked=0
stale=0
for doc in "${docs[@]}"; do
  text=$(citing_text "$doc")
  while IFS=: read -r line cite; do
    cite=$(sed -E 's/^[^a-zA-Z.]+//; s/[.,;:)]+$//; s:/$::' <<<"$cite")
    [[ -z $cite ]] && continue
    checked=$((checked + 1))
    if ! resolves "$cite"; then
      echo "$doc:$line: cites $cite, which does not exist" >&2
      stale=$((stale + 1))
    fi
  done < <(grep -o -n -E "(^|[^A-Za-z0-9_./-])(${dirs})/([A-Za-z0-9_./*<>-]|\{[^}]*\})*" <<<"$text" ||
             true
           grep -o -n -E '`[A-Z][A-Z_]*\.(md|json)`' <<<"$text" | tr -d '`' || true)
done

if ((stale > 0)); then
  echo "check_docs: $stale stale citation(s)" >&2
  exit 1
fi
echo "check_docs: $checked citations in ${#docs[@]} docs resolve"
