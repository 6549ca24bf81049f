"""Views of the ``FIGURES`` table: text, claims, Vega-Lite, files.

``repro-bfs figure`` prints :func:`render`, ``repro-bfs scorecard``
prints :func:`evaluate` at the ``quick`` tier, ``repro-bfs reproduce``
calls :func:`write_figure` for every entry, and
``benchmarks/bench_reproduction.py`` asserts every ``full``-tier claim and
holds the rows against :func:`pin_rows`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.harness.figures import FIGURES, Claim, Figure, Rows
from repro.harness.report import format_table
from repro.harness.runner import write_csv
from repro.types import GraphSpec


@dataclass(frozen=True, slots=True)
class Verdict:
    """One claim evaluated on one tier's rows."""

    figure: Figure
    claim: Claim
    passed: bool
    measured: str


def pin_rows(rows: Rows, like: list) -> list[dict[str, object]]:
    """``rows`` as ``tests/data/reproduction_rows.json`` pins them: row by row
    the keys ``like`` names, floats via ``repr`` — equal to the pinned rows
    exactly when the two are bit-equal."""
    def pin(value):
        if isinstance(value, float):
            return repr(float(value))
        return value.item() if isinstance(value, (np.bool_, np.integer)) else value

    return [{key: pin(row[key]) for key in keys} for row, keys in zip(rows, like, strict=True)]


def check_claims(fig: Figure, rows: Rows, tier: str) -> list[Verdict]:
    """The verdict of every claim of ``fig`` that holds on ``tier``."""
    verdicts = []
    for claim in fig.claims:
        if tier in claim.tiers:
            passed, measured = claim.check(rows)
            verdicts.append(Verdict(fig, claim, bool(passed), measured))
    return verdicts


def evaluate(tier: str = "quick", seed: int = 0) -> list[Verdict]:
    """Every claim of every figure on ``tier`` (figures without one are not run)."""
    return [
        verdict
        for fig in FIGURES.values() if any(tier in claim.tiers for claim in fig.claims)
        for verdict in check_claims(fig, fig.rows(tier, seed), tier)
    ]


def format_scorecard(verdicts: list[Verdict]) -> str:
    """Render the PASS/FAIL table."""
    rows = [
        [v.figure.source, v.claim.text, "PASS" if v.passed else "FAIL", v.measured]
        for v in verdicts
    ]
    table = format_table(["source", "claim", "verdict", "measured"], rows)
    return f"{table}\n\n{sum(v.passed for v in verdicts)}/{len(verdicts)} claims reproduced"


def header(fig: Figure, rows: Rows, tier: str) -> str:
    """The line naming what a rendered figure is: id, reference, status, tier and
    the seed its rows carry (analytic rows have none)."""
    seed = f"; seed {rows[0]['seed']}" if "seed" in rows[0] else ""
    return f"{fig.id}: {fig.source} {fig.title} [{fig.status}; tier {tier}{seed}]"


def render(fig: Figure, rows: Rows, tier: str) -> str:
    """The figure as text: header line, then the printed columns as a table."""
    cells = [[format(row[key], spec) for _h, key, spec in fig.columns] for row in rows]
    return f"{header(fig, rows, tier)}\n{format_table([h for h, _k, _s in fig.columns], cells)}"


def _points_text(points: dict) -> str:
    return ", ".join(
        f"{key}=(n={value.n}, k={value.k:g}, seed={value.seed})" if isinstance(value, GraphSpec)
        else f"{key}={value}"
        for key, value in points.items()
    )


def status_table() -> str:
    """The table as a Markdown status table (EXPERIMENTS.md embeds it verbatim)."""
    lines = ["| id | paper | status | `quick` points | `full` points | claims |",
             "|---|---|---|---|---|---|"]
    for fig in FIGURES.values():
        quick, full = (_points_text(fig.points[tier]) for tier in ("quick", "full"))
        lines.append(
            f"| `{fig.id}` | {fig.source} | {fig.status} | {quick} | "
            f"{'same' if full == quick else full} | {len(fig.claims)} |"
        )
    return "\n".join(lines)


def vega_lite(fig: Figure, rows: Rows, tier: str) -> dict:
    """A Vega-Lite spec with the rows inline: the first printed column on x,
    one small chart per remaining numeric column (CI columns as data only).
    When x repeats, the next column that tells such rows apart colours the lines."""
    keys = [key for _h, key, _s in fig.columns if not key.endswith("_ci")]
    numeric = [
        key for key in keys
        if isinstance(rows[0][key], (int, float)) and not isinstance(rows[0][key], bool)
    ]
    x = keys[0]
    series = None
    if len({row[x] for row in rows}) < len(rows):
        series = next(
            (k for k in keys[1:] if len({(row[x], row[k]) for row in rows}) == len(rows)), None
        )
    encoding = {
        "x": {"field": x, "type": "quantitative" if x in numeric else "nominal"},
        "y": {"field": {"repeat": "repeat"}, "type": "quantitative"},
    }
    if series:
        encoding["color"] = {"field": series, "type": "nominal"}
    return {
        "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
        "title": f"{fig.source}: {fig.title}",
        "description": header(fig, rows, tier),
        "data": {"values": rows},
        "repeat": [key for key in numeric if key not in (x, series)],
        "spec": {"mark": {"type": "line", "point": True}, "encoding": encoding},
    }


def write_figure(fig: Figure, out_dir: str | Path, tier: str = "quick") -> Rows:
    """Regenerate ``fig`` and write ``<id>.txt``, ``<id>.csv`` and ``<id>.vl.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = fig.rows(tier)
    (out_dir / f"{fig.id}.txt").write_text(render(fig, rows, tier) + "\n", encoding="utf-8")
    write_csv(rows, out_dir / f"{fig.id}.csv")
    (out_dir / f"{fig.id}.vl.json").write_text(
        json.dumps(vega_lite(fig, rows, tier), indent=1, default=lambda o: o.item()) + "\n",
        encoding="utf-8",
    )
    return rows
