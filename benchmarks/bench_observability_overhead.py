"""Observability overhead — proves the disabled-mode cost is in the noise.

Runs the reference workload (Poisson graph, n=20k, k=8, seed 7, 4x4 grid)
through ``distributed_bfs`` twice: once with ``observe="off"`` (the
default — every span site reduces to one attribute load and a false
branch) and once with ``observe="full"`` (spans + per-message capture).
Reports host wall-clock throughput for both, the full-mode overhead, and
— the gated quantity — the off-mode throughput against the committed
pre-observability baseline (``benchmarks/simulator_baseline.json``).

Plain script so CI can gate on it:

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --check
    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --tiny \
        --check --tolerance 0.25 --trace-out trace.json
    PYTHONPATH=src python benchmarks/bench_observability_overhead.py \
        --check --against-rev <pre-observability-commit>

``--check`` fails (exit 1) when the off-mode throughput is more than
``--tolerance`` (default 2%) below the reference.  Two references are
supported: the committed baseline file (absolute edges-per-wall-second —
only meaningful on the machine that recorded it; CI smoke runs pass a
looser tolerance), and ``--against-rev``, which checks the
pre-observability commit out into a temporary git worktree and times the
two source trees in interleaved subprocess pairs.  The paired ratio
cancels machine speed and drift, so the 2% default is reliable there.
``--trace-out`` writes the observed run's Perfetto JSON (uploadable as a
CI artifact and loadable at https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if "--worker" in sys.argv:
    # Worker subprocess: time the workload under an arbitrary source tree
    # (used by --against-rev to run the pre-observability revision).
    sys.path.insert(0, sys.argv[sys.argv.index("--worker") + 1])
else:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import build_engine  # noqa: E402
from repro.bfs.level_sync import run_bfs  # noqa: E402
from repro.graph.generators import poisson_random_graph  # noqa: E402
from repro.types import GraphSpec  # noqa: E402

BASELINE_PATH = REPO_ROOT / "benchmarks" / "simulator_baseline.json"

FULL = {"n": 20_000, "k": 8.0, "seed": 7, "grid": (4, 4), "baseline_key": "full"}
TINY = {"n": 2_000, "k": 8.0, "seed": 7, "grid": (4, 4), "baseline_key": "tiny"}


def _best_wall(graph, grid: tuple[int, int], observe: str, repeats: int):
    best = None
    result = None
    # Only pass observe= when it does something: keeps the call compatible
    # with pre-observability trees (--against-rev workers) and the off-mode
    # timing identical in shape across both trees.
    kwargs = {} if observe == "off" else {"observe": observe}
    for _ in range(repeats):
        engine = build_engine(graph, grid, **kwargs)
        t0 = time.perf_counter()
        result = run_bfs(engine, 0)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, result


def _worker_wall(src_path: str, workload: dict, repeats: int) -> float:
    """Best wall time of the reference workload under ``src_path``'s tree."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", src_path,
         "--repeats", str(repeats)]
        + (["--tiny"] if workload is TINY else []),
        capture_output=True, text=True, check=True,
    ).stdout
    return float(re.search(r"worker-wall=([0-9.eE+-]+)", out).group(1))


def check_against_rev(
    workload: dict, rev: str, repeats: int, pairs: int, tolerance: float
) -> int:
    """Paired interleaved A/B: this tree vs ``rev`` in a temp worktree."""
    with tempfile.TemporaryDirectory(prefix="obs-overhead-") as tmp:
        ref = Path(tmp) / "ref"
        subprocess.run(
            ["git", "-C", str(REPO_ROOT), "worktree", "add", "--detach",
             str(ref), rev],
            check=True, capture_output=True,
        )
        try:
            base_best, cur_best = None, None
            for i in range(pairs):
                base = _worker_wall(str(ref / "src"), workload, repeats)
                cur = _worker_wall(str(REPO_ROOT / "src"), workload, repeats)
                base_best = base if base_best is None else min(base_best, base)
                cur_best = cur if cur_best is None else min(cur_best, cur)
                print(f"  pair {i + 1}/{pairs}: rev={base:.4f}s now={cur:.4f}s")
        finally:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "remove", "--force",
                 str(ref)],
                capture_output=True,
            )
    overhead = cur_best / base_best - 1.0
    ok = overhead <= tolerance
    print(
        f"  best: rev {rev[:12]} {base_best:.4f}s, now {cur_best:.4f}s, "
        f"disabled-mode overhead {overhead:+.2%}  "
        f"{'ok' if ok else 'REGRESSION'} (limit {tolerance:.0%})"
    )
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke size (n=2k)")
    parser.add_argument("--check", action="store_true",
                        help="gate off-mode throughput against the baseline")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional off-mode slowdown vs the "
                             "baseline (default 0.02)")
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed repetitions per mode; best is kept (default 9)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_observability.json",
                        help="where to write the report JSON")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write the observed run's Perfetto JSON here")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--against-rev", default=None, metavar="REV",
                        help="gate via paired interleaved timing against this "
                             "git revision instead of the baseline file")
    parser.add_argument("--pairs", type=int, default=4,
                        help="interleaved (rev, now) timing pairs for "
                             "--against-rev (default 4)")
    parser.add_argument("--worker", default=None, metavar="SRC",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = TINY if args.tiny else FULL
    grid = workload["grid"]

    if args.worker is not None:
        graph = poisson_random_graph(
            GraphSpec(n=workload["n"], k=workload["k"], seed=workload["seed"])
        )
        wall, _ = _best_wall(graph, grid, "off", args.repeats)
        print(f"worker-wall={wall:.6f}")
        return 0

    print(f"observability overhead ({'tiny' if args.tiny else 'full'}): "
          f"n={workload['n']}, k={workload['k']}, seed={workload['seed']}, "
          f"grid={grid[0]}x{grid[1]}")
    graph = poisson_random_graph(
        GraphSpec(n=workload["n"], k=workload["k"], seed=workload["seed"])
    )
    num_entries = int(graph.indices.size)

    # Interleave-free ordering is fine: each mode keeps its best-of-N.
    wall_off, result_off = _best_wall(graph, grid, "off", args.repeats)
    wall_full, result_full = _best_wall(graph, grid, "full", args.repeats)
    obs = result_full.observability
    full_overhead = wall_full / wall_off - 1.0

    print(f"  off : wall={wall_off:.4f}s  edges/s={num_entries / wall_off:.3e}")
    print(f"  full: wall={wall_full:.4f}s  edges/s={num_entries / wall_full:.3e}  "
          f"({len(obs.spans)} spans, {len(obs.messages)} messages, "
          f"overhead {full_overhead:+.1%})")
    if result_off.elapsed != result_full.elapsed:
        print("ERROR: observability changed the simulated clock")
        return 2

    report = {
        "workload": {k: workload[k] for k in ("n", "k", "seed")},
        "grid": f"{grid[0]}x{grid[1]}",
        "tiny": args.tiny,
        "off": {"wall_s": round(wall_off, 6),
                "edges_per_s": round(num_entries / wall_off, 1)},
        "full": {"wall_s": round(wall_full, 6),
                 "edges_per_s": round(num_entries / wall_full, 1),
                 "spans": len(obs.spans),
                 "messages": len(obs.messages),
                 "overhead_frac": round(full_overhead, 4)},
        "simulated_s": result_off.elapsed,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    if args.trace_out is not None:
        obs.write_trace(args.trace_out)
        print(f"wrote {args.trace_out}")

    if args.check and args.against_rev:
        print(f"paired A/B against {args.against_rev}:")
        return check_against_rev(
            workload, args.against_rev, args.repeats, args.pairs, args.tolerance
        )
    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}")
            return 2
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
        rows = {r["grid"]: r for r in baseline.get(workload["baseline_key"], [])}
        base = rows.get(report["grid"])
        if base is None:
            print(f"baseline has no {report['grid']} row")
            return 2
        floor = base["edges_per_s"] * (1.0 - args.tolerance)
        ok = report["off"]["edges_per_s"] >= floor
        print(
            f"  off-mode {report['off']['edges_per_s']:.3e} edges/s vs "
            f"baseline {base['edges_per_s']:.3e} (floor {floor:.3e})  "
            f"{'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            print(f"disabled-mode observability overhead exceeds "
                  f"{args.tolerance:.0%} of the baseline throughput")
            return 1
        print(f"disabled-mode overhead within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
