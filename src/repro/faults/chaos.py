"""Chaos verification: hundreds of seeded fault schedules, one invariant.

Every *recoverable* fault schedule — whatever mix of transient drops,
degraded links, stragglers, a dying link, and rank crashes it carries —
must leave the BFS answer byte-identical to the fault-free run.  A run
that cannot recover (checkpoint buddies crashing together, a level that
keeps failing past its retry budget) must fail *loudly*, with a
structured :class:`~repro.faults.FaultReport` attached to the raised
:class:`~repro.errors.FaultError` — never return silently wrong levels.

:func:`sample_chaos_spec` draws one seeded spec mixing all fault axes;
:func:`run_chaos` executes a batch of seeds against one pinned search and
classifies every case as ``ok`` (recovered, validated), ``unrecoverable``
(loud structured failure — an acceptable outcome), or ``invalid`` (wrong
answer, broken conservation, or an unstructured crash — a bug).  The
``harness/chaos_sweep.py`` script drives this from the command line and
from CI.

Like :mod:`repro.faults.validate`, this module imports the BFS layer and
is therefore *not* re-exported from :mod:`repro.faults`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import build_engine, distributed_bfs
from repro.bfs.msbfs import run_ms_bfs
from repro.bfs.options import BfsOptions
from repro.errors import FaultError, ReproError
from repro.faults.spec import FaultSpec
from repro.faults.validate import validate_run
from repro.graph.csr import CsrGraph
from repro.types import GridShape
from repro.utils.rng import RngFactory


def sample_chaos_spec(seed: int) -> FaultSpec:
    """Draw one seeded fault workload mixing every fault axis.

    The draw is deterministic in ``seed`` (a named RNG stream), and the
    returned spec reuses ``seed`` for its own schedule sampling, so a
    failing case is reproducible from its seed alone.
    """
    rng = RngFactory(seed).named("chaos")
    kwargs: dict[str, object] = {"seed": seed}
    if rng.random() < 0.7:
        kwargs["drop_rate"] = round(float(rng.uniform(0.01, 0.15)), 4)
        kwargs["max_retries"] = int(rng.integers(1, 4))
    if rng.random() < 0.4:
        kwargs["degraded_link_rate"] = round(float(rng.uniform(0.05, 0.3)), 4)
        kwargs["degradation_factor"] = round(float(rng.uniform(1.5, 4.0)), 4)
    if rng.random() < 0.4:
        kwargs["straggler_rate"] = round(float(rng.uniform(0.05, 0.3)), 4)
        kwargs["straggler_slowdown"] = round(float(rng.uniform(1.5, 4.0)), 4)
    if rng.random() < 0.25:
        kwargs["down_level"] = int(rng.integers(0, 4))
    if rng.random() < 0.5:
        kwargs["crash_rate"] = round(float(rng.uniform(0.05, 0.35)), 4)
        kwargs["crash_max_level"] = int(rng.integers(0, 5))
        kwargs["recovery"] = "spare" if rng.random() < 0.5 else "shrink"
        kwargs["spare_ranks"] = int(rng.integers(0, 3))
        kwargs["collective_faults"] = bool(rng.random() < 0.3)
    return FaultSpec(**kwargs)


@dataclass(slots=True)
class ChaosCase:
    """Outcome of one seeded schedule against the pinned search."""

    seed: int
    spec: str
    outcome: str  # "ok" | "unrecoverable" | "invalid"
    problems: list[str] = field(default_factory=list)
    error: str = ""
    injected: int = 0
    crashes: int = 0
    failovers: int = 0
    replayed_levels: int = 0
    rollbacks: int = 0
    checkpoint_bytes: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed, "spec": self.spec, "outcome": self.outcome,
            "problems": list(self.problems), "error": self.error,
            "injected": self.injected, "crashes": self.crashes,
            "failovers": self.failovers,
            "replayed_levels": self.replayed_levels,
            "rollbacks": self.rollbacks,
            "checkpoint_bytes": self.checkpoint_bytes,
        }


@dataclass(slots=True)
class ChaosReport:
    """A chaos batch's verdicts plus the workload that produced them."""

    n: int
    grid: tuple[int, int]
    source: int
    cases: list[ChaosCase] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        tally = {"ok": 0, "unrecoverable": 0, "invalid": 0}
        for case in self.cases:
            tally[case.outcome] = tally.get(case.outcome, 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        """True when no case produced a silently-wrong or unstructured result."""
        return self.counts.get("invalid", 0) == 0

    def invalid_cases(self) -> list[ChaosCase]:
        return [c for c in self.cases if c.outcome == "invalid"]

    def summary(self) -> str:
        c = self.counts
        return (
            f"chaos sweep over {len(self.cases)} schedules on n={self.n} "
            f"grid={self.grid[0]}x{self.grid[1]}: {c['ok']} ok, "
            f"{c['unrecoverable']} unrecoverable (loud), "
            f"{c['invalid']} INVALID"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n, "grid": list(self.grid), "source": self.source,
            "counts": self.counts, "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1), encoding="utf-8"
        )


def _case_counters(case: ChaosCase, report) -> None:
    if report is None:
        return
    case.injected = report.injected
    case.crashes = report.crashes
    case.failovers = report.failovers
    case.replayed_levels = report.replayed_levels
    case.rollbacks = report.rollbacks
    case.checkpoint_bytes = report.checkpoint_bytes


def run_chaos(
    graph: CsrGraph,
    grid: GridShape | tuple[int, int],
    source: int,
    seeds,
    *,
    opts: BfsOptions | None = None,
    batch_sources: list[int] | None = None,
) -> ChaosReport:
    """Run every seed's sampled schedule and classify the outcomes.

    The fault-free baseline runs once; each seeded case must either
    reproduce its levels byte-for-byte (plus pass every check in
    :func:`~repro.faults.validate.validate_run`) or raise a structured
    :class:`FaultError`.  Anything else is ``invalid``.

    With ``batch_sources`` the sweep exercises the *batched* traversal:
    every case runs one MS-BFS over those sources under the sampled
    schedule, and each per-source row must match its own fault-free
    *sequential* baseline byte for byte — the serving path's invariant.
    ``source`` is ignored in batch mode.
    """
    if not isinstance(grid, GridShape):
        grid = GridShape(*grid)
    if batch_sources is not None:
        source = int(batch_sources[0])
        baseline_rows = np.stack([
            distributed_bfs(graph, grid, s, opts=opts).levels
            for s in batch_sources
        ])
    else:
        baseline = distributed_bfs(graph, grid, source, opts=opts)
    report = ChaosReport(n=graph.n, grid=(grid.rows, grid.cols), source=source)
    for seed in seeds:
        spec = sample_chaos_spec(int(seed))
        case = ChaosCase(seed=int(seed), spec=repr(spec), outcome="ok")
        try:
            if batch_sources is not None:
                engine = build_engine(graph, grid, opts=opts, faults=spec)
                result = run_ms_bfs(engine, list(batch_sources))
            else:
                result = distributed_bfs(graph, grid, source, opts=opts, faults=spec)
        except FaultError as exc:
            # A loud, structured failure is an acceptable chaos outcome —
            # but only when the error carries the fault report.
            case.error = str(exc)
            if exc.report is None:
                case.outcome = "invalid"
                case.problems = ["FaultError raised without a structured report"]
            else:
                case.outcome = "unrecoverable"
                _case_counters(case, exc.report)
        except ReproError as exc:  # pragma: no cover - defensive
            case.outcome = "invalid"
            case.error = f"{type(exc).__name__}: {exc}"
            case.problems = ["run died with an unstructured error"]
        else:
            expected = (
                baseline_rows if batch_sources is not None else baseline.levels
            )
            case.problems = validate_run(graph, source, result, expected)
            if case.problems:
                case.outcome = "invalid"
            _case_counters(case, result.faults)
        report.cases.append(case)
    return report


__all__ = ["ChaosCase", "ChaosReport", "run_chaos", "sample_chaos_spec"]
