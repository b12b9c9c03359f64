"""Benchmark of the crossrisk pipeline, end to end and per layer.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory. Each measurement runs in a fresh child
process (perfbench/worker.py) with one worker and BLAS threads pinned to
1. With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics of a separate traced run. The lines before it are a
table of every metric, the correctness checks and the output digests.
`--workload all` runs every workload in turn. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("bulk", "crowd", "lossy")
# Set-up is measured this many times, each in its own process; the
# median is reported.
SETUP_RUNS = 3
# Each workload must end well inside three minutes.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class HarnessError(Exception):
    """The benchmark itself could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    """Start a fresh worker process on an empty corpus directory and
    return its JSON result."""
    out_dir = WORK_DIR / workload / "corpus"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), mode,
             workload, str(seed), str(seconds), str(out_dir), repr(t0)],
            env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} worker passed the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    if trace:
        return run_worker("trace", workload, seed, seconds, deadline)
    setups = [run_worker("setup", workload, seed, seconds, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    result = run_worker("run", workload, seed, seconds, deadline)
    setups.append(result["metrics"]["setup_s"][0])
    result["metrics"]["setup_s"][0] = statistics.median(setups)
    result["setup_runs_s"] = setups
    return result


def print_report(workload: str, seed: int, result: dict, listed: dict) -> None:
    print(f"== {workload} seed {seed}: correct={result['correct']} "
          f"scenes={result['attempted']} failed={result['failed']} "
          f"error={result['error'] or '-'}")
    if result["error"]:
        print(f"   {result['error']}: {result['error_message']}")
    if "passes" in result:
        print(f"   passes={result['passes']} detections={result['detections']} "
              f"psm_scenes={result['psm_scenes']} "
              f"psm_missed={result['psm_missed']} setup runs: "
              + " ".join(f"{s:.3f}" for s in result["setup_runs_s"]) + " s")
        print("   first pass: " + ", ".join(
            f"{name} {sec:.3f} s" for name, sec in result["stage_s"].items()))
    for name, (value, unit) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        better = listed.get(name, {}).get("better", "")
        print(f"   {name:34s} {shown:>14s} {unit:6s} {better}")
    for name, ok in result["checks"].items():
        if not ok:
            print(f"   check failed: {name}")
    for name, digest in result.get("digests", {}).items():
        print(f"   {name} {digest}")


def summary(result: dict, listed: dict) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists."""
    metrics = result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="minimum time to repeat the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crossrisk" / "__init__.py").is_file():
        sys.stderr.write(f"no crossrisk sources under {ROOT / 'src'}\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m
              for m in bench["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = measure(workload, args.seed, args.seconds,
                             bool(args.trace), deadline)
        except HarnessError as exc:
            sys.stderr.write(f"{workload}: {exc}\n")
            return 1
        print_report(workload, args.seed, result, listed)
        print(json.dumps(summary(result, listed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
