#!/usr/bin/env python3
"""Compare two google-benchmark JSON result files and flag regressions.

Usage:
    tools/compare_bench.py BASELINE.json CURRENT.json [--threshold 0.15] [--json]

Matches benchmarks by name and compares per-iteration real time (the
benchmark library's primary measurement; items_per_second is derived from
it). A benchmark regresses when its current time exceeds the baseline by
more than the threshold (default 15 %, chosen above the observed run-to-run
noise of the CI runners so the report stays quiet on healthy changes).

A benchmark of the current run that the baseline lacks (one added since
the baseline was recorded) cannot regress; it is listed as "no baseline"
in the table, in the --json document (`no_baseline`) and in the markdown
report, so a new benchmark never disappears from the report.

A missing, unreadable or empty *baseline* is not an error: the first run of
a new benchmark suite (or a freshly created CI cache) has nothing to compare
against, so the script says so and exits 0. A malformed *current* file is a
real failure of the run under test and exits 2.

With --json the verdict is emitted as a machine-readable document on stdout
(status, per-benchmark rows, threshold) for CI artifact upload; the human
table moves to stderr.

Besides the regression check, the report surfaces *scalar/batch throughput
pairs*: a benchmark named `<Base>Batch[/arg]` is paired with `<Base>[/arg]`
(or, when the batch row carries extra trailing arguments such as a die
count, with the scalar row named by the longest argument prefix) and their
items_per_second ratio is printed (and emitted under
"throughput_pairs" with --json) for both files. This is the batch
conversion engine's speedup trajectory — CI uploads it with every bench
artifact. A `*Batch` benchmark with no scalar twin (or with no
items_per_second counter on either side) is reported as a warning rather
than silently dropped — a renamed scalar benchmark must not quietly erase
the pair from the trajectory.

With --markdown FILE the pairs are additionally appended to FILE as a
GitHub-flavored markdown table (plus the regression verdict); CI points
this at $GITHUB_STEP_SUMMARY so the speedup table renders on the pull
request's checks page.

Exit status: 0 when nothing regressed (or there was no baseline), 1 when at
least one benchmark did, 2 on malformed current input. CI wires this as a
*non-blocking* report: the job prints the table and the verdict but a
regression does not fail the build — benchmark machines are shared and
noisy, so a human reads the report before acting on it.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict[str, dict] | None:
    """Map benchmark name -> entry, keeping only real iteration runs.

    Returns None when the file is missing or not valid benchmark JSON.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    out: dict[str, dict] = {}
    for entry in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev of repetitions) would double-count.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry.get("name")
        if name and "real_time" in entry:
            out[name] = entry
    return out


def scalar_twin(base: str, arg: str, benchmarks: dict[str, dict]) -> str:
    """Name of the scalar twin of batch row `<base>Batch/<arg>`.

    The exact `<base>/<arg>` when it exists; otherwise the longest argument
    prefix that names a benchmark, so a batch row with an extra trailing
    argument (`BM_ConvertNominalFastBatch/<samples>/<dies>`) pairs with
    `BM_ConvertNominalFast/<samples>`. Falls back to the exact name, which
    the caller then reports as missing.
    """
    exact = base + (f"/{arg}" if arg else "")
    parts = arg.split("/") if arg else []
    for k in range(len(parts), 0, -1):
        candidate = base + "".join(f"/{p}" for p in parts[:k])
        if candidate in benchmarks:
            return candidate
    return exact


def throughput_pairs(benchmarks: dict[str, dict]) -> tuple[list[dict], list[str]]:
    """Pair `<Base>Batch[/arg]` rows with `<Base>[/arg]` by items_per_second.

    Returns (pairs, warnings). Each pair row carries the scalar and batch
    throughputs and their ratio (batch / scalar — the batch engine's
    aggregate speedup). A batch row that cannot be paired — no scalar twin,
    or items_per_second missing on either side — produces a warning string
    instead of vanishing: a renamed or counter-less scalar benchmark must
    not silently erase the pair from the speedup trajectory.
    """
    pairs = []
    warnings = []
    for name, entry in sorted(benchmarks.items()):
        head, _, arg = name.partition("/")
        if not head.endswith("Batch"):
            continue
        scalar_name = scalar_twin(head[: -len("Batch")], arg, benchmarks)
        scalar = benchmarks.get(scalar_name)
        if scalar is None:
            warnings.append(f"{name}: no scalar twin {scalar_name!r} — pair skipped")
            continue
        batch_ips = entry.get("items_per_second")
        scalar_ips = scalar.get("items_per_second")
        if not batch_ips or not scalar_ips:
            which = scalar_name if not scalar_ips else name
            warnings.append(f"{name}: {which!r} has no items_per_second — pair skipped")
            continue
        pairs.append(
            {
                "scalar": scalar_name,
                "batch": name,
                "scalar_items_per_second": scalar_ips,
                "batch_items_per_second": batch_ips,
                "ratio": batch_ips / scalar_ips,
            }
        )
    return pairs, warnings


def print_pairs(label: str, pairs: list[dict], warnings: list[str], report) -> None:
    if not pairs and not warnings:
        return
    print(f"\nscalar/batch throughput pairs ({label}):", file=report)
    if pairs:
        width = max(len(p["batch"]) for p in pairs)
        for p in pairs:
            print(
                f"  {p['batch']:<{width}}  {p['scalar_items_per_second'] / 1e6:8.2f} -> "
                f"{p['batch_items_per_second'] / 1e6:8.2f} M items/s   x{p['ratio']:.2f}",
                file=report,
            )
    for warning in warnings:
        print(f"  WARNING: {warning}", file=report)


def pairs_markdown(label: str, pairs: list[dict], warnings: list[str]) -> str:
    """Render one file's throughput pairs as a GitHub-flavored markdown table."""
    lines = [f"#### Scalar/batch throughput pairs ({label})", ""]
    if pairs:
        lines += [
            "| batch benchmark | scalar (M items/s) | batch (M items/s) | speedup |",
            "| --- | ---: | ---: | ---: |",
        ]
        for p in pairs:
            lines.append(
                f"| `{p['batch']}` | {p['scalar_items_per_second'] / 1e6:.2f} "
                f"| {p['batch_items_per_second'] / 1e6:.2f} | x{p['ratio']:.2f} |"
            )
    else:
        lines.append("_no scalar/batch pairs found_")
    for warning in warnings:
        lines.append(f"- :warning: {warning}")
    lines.append("")
    return "\n".join(lines)


def write_markdown(path: str, sections: list[str]) -> None:
    """Append the markdown report to `path` ($GITHUB_STEP_SUMMARY in CI)."""
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n".join(sections) + "\n")
    except OSError as err:
        print(f"compare_bench: cannot write markdown report: {err}", file=sys.stderr)


def no_baseline_markdown(rows: list[dict]) -> str:
    """Render the current-only benchmarks as a markdown list."""
    if not rows:
        return ""
    lines = [f"#### No baseline ({len(rows)})", ""]
    for row in rows:
        lines.append(f"- `{row['name']}`: {fmt_time(row['current_ns'])} (no baseline)")
    lines.append("")
    return "\n".join(lines)


def fmt_time(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="google-benchmark JSON of the base revision")
    parser.add_argument("current", help="google-benchmark JSON of the candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative slowdown that counts as a regression (default 0.15)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a machine-readable verdict on stdout (table goes to stderr)",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="append a markdown report (verdict + throughput-pair tables) to "
        "FILE — CI points this at $GITHUB_STEP_SUMMARY",
    )
    args = parser.parse_args()

    report = sys.stderr if args.as_json else sys.stdout

    def emit_json(document: dict) -> None:
        if args.as_json:
            json.dump(document, sys.stdout, indent=2)
            sys.stdout.write("\n")

    curr = load_benchmarks(args.current)
    if curr is None or not curr:
        print(f"compare_bench: no iteration benchmarks in {args.current}", file=sys.stderr)
        return 2

    curr_pairs, curr_pair_warnings = throughput_pairs(curr)

    base = load_benchmarks(args.baseline)
    if base is None or not base:
        reason = "missing or unreadable" if base is None else "empty"
        print(
            f"compare_bench: baseline {args.baseline} is {reason}; "
            "nothing to compare against (first run?) — skipping comparison",
            file=report,
        )
        print_pairs("current", curr_pairs, curr_pair_warnings, report)
        if args.markdown:
            write_markdown(
                args.markdown,
                [
                    "### Benchmark comparison",
                    "",
                    f"_baseline `{args.baseline}` is {reason} — comparison skipped_",
                    "",
                    pairs_markdown("current", curr_pairs, curr_pair_warnings),
                ],
            )
        emit_json(
            {
                "status": "no_baseline",
                "baseline": args.baseline,
                "current": args.current,
                "threshold": args.threshold,
                "benchmarks": [],
                "throughput_pairs": curr_pairs,
                "throughput_pair_warnings": curr_pair_warnings,
            }
        )
        return 0

    common = [name for name in base if name in curr]
    no_baseline = [
        {"name": name, "current_ns": curr[name]["real_time"]}
        for name in curr
        if name not in base
    ]
    if not common:
        print("compare_bench: no benchmarks in common — skipping comparison", file=report)
        for row in no_baseline:
            print(f"  {row['name']}  {fmt_time(row['current_ns'])}  no baseline", file=report)
        if args.markdown:
            write_markdown(
                args.markdown,
                [
                    "### Benchmark comparison",
                    "",
                    "_no benchmarks in common with the baseline — comparison skipped_",
                    "",
                    no_baseline_markdown(no_baseline),
                ],
            )
        emit_json(
            {
                "status": "no_overlap",
                "baseline": args.baseline,
                "current": args.current,
                "threshold": args.threshold,
                "benchmarks": [],
                "only_in_baseline": sorted(base),
                "only_in_current": sorted(curr),
                "no_baseline": no_baseline,
            }
        )
        return 0

    width = max(len(n) for n in list(common) + [row["name"] for row in no_baseline])
    regressions = []
    rows = []
    print(
        f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'delta':>8}",
        file=report,
    )
    for name in common:
        t_base = base[name]["real_time"]
        t_curr = curr[name]["real_time"]
        delta = t_curr / t_base - 1.0 if t_base > 0 else float("inf")
        regressed = delta > args.threshold
        if regressed:
            regressions.append((name, delta))
        rows.append(
            {
                "name": name,
                "baseline_ns": t_base,
                "current_ns": t_curr,
                "delta": delta,
                "regression": regressed,
            }
        )
        mark = "  <-- REGRESSION" if regressed else ""
        print(
            f"{name:<{width}}  {fmt_time(t_base):>10}  {fmt_time(t_curr):>10}"
            f"  {delta:>+7.1%}{mark}",
            file=report,
        )

    for row in no_baseline:
        print(
            f"{row['name']:<{width}}  {'-':>10}  {fmt_time(row['current_ns']):>10}"
            "  no baseline",
            file=report,
        )

    only_base = sorted(set(base) - set(curr))
    only_curr = sorted(set(curr) - set(base))
    if only_base:
        print(f"\nonly in baseline: {', '.join(only_base)}", file=report)

    base_pairs, base_pair_warnings = throughput_pairs(base)
    print_pairs("baseline", base_pairs, base_pair_warnings, report)
    print_pairs("current", curr_pairs, curr_pair_warnings, report)

    if args.markdown:
        verdict = (
            f"**{len(regressions)} regression(s)** beyond {args.threshold:.0%}: "
            + ", ".join(f"`{name}` ({delta:+.1%})" for name, delta in regressions)
            if regressions
            else f"no regression beyond {args.threshold:.0%} on {len(common)} benchmarks"
        )
        write_markdown(
            args.markdown,
            [
                "### Benchmark comparison",
                "",
                verdict,
                "",
                no_baseline_markdown(no_baseline),
                pairs_markdown("baseline", base_pairs, base_pair_warnings),
                pairs_markdown("current", curr_pairs, curr_pair_warnings),
            ],
        )

    emit_json(
        {
            "status": "regression" if regressions else "ok",
            "baseline": args.baseline,
            "current": args.current,
            "threshold": args.threshold,
            "benchmarks": rows,
            "only_in_baseline": only_base,
            "only_in_current": only_curr,
            "no_baseline": no_baseline,
            "baseline_throughput_pairs": base_pairs,
            "throughput_pairs": curr_pairs,
            "baseline_throughput_pair_warnings": base_pair_warnings,
            "throughput_pair_warnings": curr_pair_warnings,
        }
    )

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) slower than baseline by >"
            f" {args.threshold:.0%}:",
            file=report,
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}", file=report)
        return 1
    print(
        f"\nno regression beyond {args.threshold:.0%} on {len(common)} benchmarks",
        file=report,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
