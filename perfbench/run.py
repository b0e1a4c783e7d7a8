#!/usr/bin/env python3
"""The repository benchmark, as one command.

    python3 perfbench/run.py --workload pla_concurrent --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library from src/) into .bench_build/
at the checkout root, runs one workload for --seconds, gates the answers and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. At the default seed (0) every instance's cost must equal its
committed record in bench/baselines/; a mismatch counts as failed solves.
Exits 0 only when every solve checked out.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 0
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and waits for it. On timeout the
    whole group (make and the compilers too) is killed and reaped. Returns
    (exit code or None on timeout, captured stdout or None)."""
    with subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
            return proc.returncode, out
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, None


def build(target):
    """Configures once, then builds `target`; the tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target])
    for cmd in steps:
        try:
            code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return False
        if code != 0:
            log(f"perfbench: build step {'timed out' if code is None else f'exited {code}'}:"
                f" {' '.join(cmd)}")
            return False
    return True


def baseline_costs(suite):
    path = ROOT / "bench" / "baselines" / f"BENCH_{suite}.json"
    with open(path, encoding="utf-8") as f:
        return {r["instance"]: r["cost"] for r in json.load(f)["records"]}


def answer_gate(report):
    """Failed solves from comparing each instance's cost with its baseline."""
    n = len(report["instances"])
    per_instance = report["attempted"] // n if n else 0
    baselines = {}
    failed = 0
    total = expected = 0
    for inst in report["instances"]:
        suite = inst["suite"]
        if suite not in baselines:
            baselines[suite] = baseline_costs(suite)
        want = baselines[suite].get(inst["name"])
        total += inst["cost"]
        expected += want if want is not None else 0
        if want is None or inst["cost"] != want:
            failed += per_instance
            log(f"answer gate: {suite}/{inst['name']} cost {inst['cost']}, "
                f"baseline {want}")
    print(f"answer gate: cover cost {total} against baseline {expected} "
          f"over {n} instances")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own checks")
    args = ap.parse_args()

    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        code, _ = run([str(BUILD / "perfbench_selftest")], RUN_TIMEOUT_S, None)
        return 2 if code is None else code

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2
    if args.seed < 0:
        log("perfbench: --seed must be non-negative")
        return 2
    if not build("perfbench"):
        return 2

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        log(f"perfbench: run {'timed out' if code is None else f'exited {code}'}")
        return 2
    report = json.loads(lines[-1])

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(report["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(wanted) ^ set(report['metrics']))}")
        return 2

    for note in report["notes"]:
        print(note)
    failed = report["failed"]
    if args.seed == DEFAULT_SEED:
        try:
            failed += answer_gate(report)
        except (OSError, KeyError, ValueError) as e:
            log(f"perfbench: cannot read the committed baselines: {e}")
            return 2
    failed = min(failed, report["attempted"])
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: report["metrics"][name] for name in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
