"""The repo's benchmark: six workloads, both clocks, an outside-in layer trace.

One workload, in this process (what ``BENCHMARK.json`` names; the last
line printed is the JSON result)::

    python3 bench/run.py --workload mesh-fast --seed 7 --seconds 12 --trace 0

All six, each run alone in a fresh child process, in interleaved rounds
(A B C D E F, A B C ...; three rounds, one under ``--smoke``), then one
traced pass; prints every metric and writes ``bench/out/result.json`` for ``bench/compare.py``::

    python3 bench/run.py [--seed 7] [--trace 1] [--smoke]

See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no program to measure: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from measure import DEFAULT_SECONDS, END_TO_END, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = BENCH / "out"


def run_one(args) -> int:
    """Measure one workload here; print its metrics and the result line."""
    OUT.mkdir(exist_ok=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        smoke=args.smoke, trace_path=OUT / f"trace-{args.workload}.json",
    )
    detail = result.pop("detail")
    for name, cell in result["metrics"].items():
        print(f"{args.workload:13s} {name:36s} {cell['value']:14.6g} {cell['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{args.workload:13s} {'error_rate':36s} {error_rate:14.6g} share "
          f"({result['failed']} of {result['attempted']} ops, "
          f"{detail['samples']} timed samples)")
    if detail["mismatch"]:
        print(f"first failure: {detail['mismatch']}")
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


def _child(workload: str, args, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads((OUT / f"last-{workload}-trace{trace}.json").read_text())


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(BENCH), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args) -> int:
    """Every workload alone in a child process, rounds interleaved."""
    rounds = 1 if args.smoke else 3
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for rnd in range(rounds):
        for workload in WORKLOADS:
            print(f"round {rnd + 1}/{rounds}: {workload}", file=sys.stderr)
            runs[workload].append(_child(workload, args, 0))
    report = {
        "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _commit(), "workloads": {},
    }
    for workload, results in runs.items():
        cells = {}
        for name, (unit, better, bound) in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in results]
            pick = max if name == "peak_rss_mb" else statistics.median
            median = statistics.median(values)
            cells[name] = {
                "unit": unit, "better": better, "bound": bound,
                "value": pick(values), "rounds": values,
                "spread": (max(values) - min(values)) / median if median else 0.0,
                "samples": sum(r["detail"]["samples"] for r in results),
            }
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": cells,
        }
        if args.trace:
            print(f"traced pass: {workload}", file=sys.stderr)
            traced = _child(workload, args, 1)
            entry["per_layer"] = traced["metrics"]
            entry["failed"] += traced["failed"]
        report["workloads"][workload] = entry
    for workload, entry in report["workloads"].items():
        for name, cell in entry["end_to_end"].items():
            print(f"{workload:13s} {name:36s} {cell['value']:14.6g} {cell['unit']:7s}"
                  f" spread {cell['spread']:.3f}")
        print(f"{workload:13s} {'error_rate':36s} "
              f"{entry['failed'] / entry['attempted']:14.6g} share   "
              f"({entry['failed']} of {entry['attempted']} ops)")
        for name, cell in entry.get("per_layer", {}).items():
            print(f"{workload:13s} {name:36s} {cell['value']:14.6g} {cell['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(report, indent=1))
    print(f"wrote {OUT / 'result.json'}")
    return 1 if any(e["failed"] for e in report["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="generates the graph, the sources and the arrivals")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: checks the harness, not speed")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
