#!/usr/bin/env python3
"""Weak- and strong-scaling study — Figures 4.a and 5 in miniature.

Regenerates the two scaling entries of the reproduction table
(``repro.harness.FIGURES``) at their quick design points and fits the
paper's claimed scaling laws:

* weak scaling (|V|/rank fixed): time ~ a * log2(P) + b,
* strong scaling (graph fixed):  speedup ~ a * sqrt(P).

Run:  python examples/scaling_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.scaling import log_fit, sqrt_fit
from repro.harness import FIGURES, views


def study(name: str) -> list[dict]:
    fig = FIGURES[name]
    rows = fig.rows("quick")
    print(views.render(fig, rows, "quick"))
    return rows


def main() -> None:
    rows = study("fig4a")
    a, b, r2 = log_fit(
        np.array([r["p"] for r in rows]), np.array([r["mean_time_s"] for r in rows])
    )
    print(f"fit: time = {a * 1e3:.3f} ms * log2(P) + {b * 1e3:.3f} ms   (R^2 = {r2:.3f})")
    print("paper's shape: execution time grows in proportion to log P\n")

    rows = study("fig5")
    a, r2 = sqrt_fit(
        np.array([r["p"] for r in rows]), np.array([r["speedup"] for r in rows])
    )
    print(f"fit: speedup = {a:.2f} * sqrt(P)   (R^2 = {r2:.3f})")
    print("paper's shape: speedup grows ~ sqrt(P) for small P, then tapers\n")


if __name__ == "__main__":
    main()
