"""Simulator throughput — wall-clock regression harness for the hot paths.

Runs the reference workload (Poisson graph, n=20k, k=8, seed 7) through
``distributed_bfs`` on growing virtual grids — rank-bound rows, where
scheduling and collectives do the work — plus one data-bound row (n=100k,
k=16 on 4x4: 1.6 M adjacency entries over 16 ranks), where the engine
kernels do, and records *host* throughput: wall seconds per run, BFS
levels per wall second, and simulated adjacency entries processed per wall
second.  The simulation itself is deterministic, so any change in these
numbers is a change in the simulator's own speed — the quantity the
vectorized kernels exist to protect.

Unlike the ``bench_*`` pytest files (which regenerate the paper's figures),
this is a plain script so CI can gate on it:

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py
    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py --tiny --check

It writes ``BENCH_simulator.json`` (repo root by default).  ``--check``
compares edges-per-wall-second against the committed baseline
(``benchmarks/simulator_baseline.json``) and exits non-zero if any row's
throughput dropped more than ``--tolerance`` (default 30%).  Refresh the
baseline with ``--update-baseline`` after an intentional perf change, and
pass ``--before REPORT`` (this script's output on the parent commit) so
the committed report carries the before/after rows side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import build_engine  # noqa: E402
from repro.bfs.level_sync import run_bfs  # noqa: E402
from repro.graph.generators import poisson_random_graph  # noqa: E402
from repro.types import GraphSpec, SystemSpec  # noqa: E402

BASELINE_PATH = REPO_ROOT / "benchmarks" / "simulator_baseline.json"

SEED = 7
#: (n, k, grid) per row; the last row of each list is the data-bound one
FULL = [
    *[
        (20_000, 8.0, grid)
        for grid in [(4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128)]
    ],
    (100_000, 16.0, (4, 4)),
]
TINY = [
    *[(2_000, 8.0, grid) for grid in [(2, 2), (4, 4), (64, 64)]],
    (4_000, 16.0, (2, 2)),
]


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _row_key(row: dict) -> tuple:
    return row["n"], row["k"], row["grid"]


def measure(cases: list[tuple], repeats: int) -> list[dict]:
    graphs: dict[tuple, object] = {}
    rows = []
    for n, k, grid in cases:
        graph = graphs.get((n, k))
        if graph is None:
            graph = graphs[n, k] = poisson_random_graph(
                GraphSpec(n=n, k=k, seed=SEED)
            )
        num_entries = int(graph.indices.size)  # directed adjacency entries
        best = None
        result = None
        for _ in range(repeats):
            engine = build_engine(graph, grid, system=SystemSpec(layout="2d"))
            t0 = time.perf_counter()
            result = run_bfs(engine, 0)
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        rows.append({
            "n": n,
            "k": k,
            "grid": f"{grid[0]}x{grid[1]}",
            "ranks": grid[0] * grid[1],
            "wall_s": round(best, 6),
            "levels": result.num_levels,
            "levels_per_s": round(result.num_levels / best, 3),
            "edges_per_s": round(num_entries / best, 1),
            "simulated_s": result.elapsed,
        })
        print(
            f"  n={n:<7} k={k:<4g} {rows[-1]['grid']:>7}  wall={best:.3f}s  "
            f"levels/s={rows[-1]['levels_per_s']:.1f}  "
            f"edges/s={rows[-1]['edges_per_s']:.3e}"
        )
    return rows


def check(report: dict, baseline_path: Path, tolerance: float) -> int:
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run with --update-baseline first")
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    key = "tiny" if report["tiny"] else "full"
    base_rows = {_row_key(r): r for r in baseline.get(key, [])}
    failures = []
    for row in report["results"]:
        base = base_rows.get(_row_key(row))
        if base is None:
            continue
        floor = base["edges_per_s"] * (1.0 - tolerance)
        status = "ok" if row["edges_per_s"] >= floor else "REGRESSION"
        label = f"n={row['n']} {row['grid']}"
        print(
            f"  {label:>16}  {row['edges_per_s']:.3e} edges/s  "
            f"(baseline {base['edges_per_s']:.3e}, floor {floor:.3e})  {status}"
        )
        if status != "ok":
            failures.append(label)
    if failures:
        print(f"throughput regressed >{tolerance:.0%} on: {', '.join(failures)}")
        return 1
    print("throughput within tolerance of baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke size (n=2k rank-bound rows, n=4k data-bound row)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; exit 1 on regression")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run's numbers into the baseline file")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional throughput drop for --check (default 0.30)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per grid; best is reported (default 3)")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_simulator.json",
                        help="where to write the report JSON")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--before", type=Path,
                        help="an earlier report (this script run on the parent commit); "
                             "its rows are embedded as `before`")
    args = parser.parse_args(argv)

    print(f"simulator throughput ({'tiny' if args.tiny else 'full'}), seed={SEED}")
    rows = measure(TINY if args.tiny else FULL, args.repeats)

    report = {"commit": _commit(), "seed": SEED, "tiny": args.tiny, "results": rows}
    if args.before is not None:
        before = json.loads(args.before.read_text(encoding="utf-8"))
        report["before"] = {"commit": before["commit"], "results": before["results"]}
        after = {_row_key(r): r for r in rows}
        for row in before["results"]:
            if _row_key(row) in after:
                ratio = after[_row_key(row)]["edges_per_s"] / row["edges_per_s"]
                print(f"  n={row['n']} {row['grid']}: x{ratio:.2f} edges/s vs before")
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    if args.update_baseline:
        baseline = (
            json.loads(args.baseline.read_text(encoding="utf-8"))
            if args.baseline.exists() else {}
        )
        baseline["tiny" if args.tiny else "full"] = rows
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
        print(f"updated baseline {args.baseline}")

    if args.check:
        return check(report, args.baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
