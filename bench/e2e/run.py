#!/usr/bin/env python3
"""Build adc_bench from this checkout and run one workload of BENCHMARK.json.

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Builds the benchmark project (bench/e2e, which compiles the simulator
libraries from src/) into $CARGO_TARGET_DIR/adc_bench, default
.bench_build/adc_bench, then runs

    adc_bench --workload W --seed N --seconds T --out <result> [--trace <spans>]

passing its metric lines through. The last line printed is one JSON object:

    {"correct": true, "attempted": 41, "failed": 0,
     "metrics": {"setup_s": {"value": 0.0019, "unit": "s"}, ...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. Without the simulator sources next to the
benchmark it exits 2 and prints no result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TIMEOUT_S = 170


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout), 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "adc_bench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if run_group(step, 850, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                die("building adc_bench failed (log: %s)" % log_path, 1)
    return os.path.join(build_dir, "adc_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at %s/src; nothing to benchmark" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "adc_bench")
    exe = build(build_dir)

    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result-%d.json" % os.getpid())
    spans_path = os.path.join(work, "spans-%d.json" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", result_path, "--work-dir", work]
    if args.trace:
        cmd += ["--trace", spans_path]
    sys.stdout.flush()
    status = run_group(cmd, TIMEOUT_S)
    if not os.path.exists(result_path):
        die("adc_bench exited %d without a result" % status, 1)
    with open(result_path) as f:
        result = json.load(f)["workloads"][args.workload]
    for path in (result_path, spans_path):
        if os.path.exists(path):
            os.remove(path)

    section, key = (("per_layer", "value") if args.trace else ("metrics", "median"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        entry = result[section].get(metric["name"])
        if entry is None or entry["unit"] != metric["unit"]:
            die("adc_bench reported no %s in %s" % (metric["name"], metric["unit"]), 1)
        metrics[metric["name"]] = {"value": entry[key], "unit": metric["unit"]}
    print(json.dumps({
        "correct": status == 0 and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
