#!/usr/bin/env python3
"""The 1D-vs-2D partitioning trade-off and its analytic crossover (Figure 6).

For a fixed graph size and processor count, sweeps the average degree k,
measures the total message volume of both layouts on a worst-case search
(unreachable target), and overlays the paper's analytic crossover degree
solved from

    n * gamma(n/P) * (P-1)/P = 2 * (n/P) * gamma(n/sqrt(P)) * (sqrt(P)-1).

Low-degree graphs favour 1D (its expand is free); high-degree graphs
favour 2D (collectives over sqrt(P) ranks); the measured crossover should
land near the analytic root.

Run:  python examples/partition_tradeoff.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.crossover import crossover_degree
from repro.harness import FIGURES
from repro.harness.report import format_table

#: Figure 6.a's own graph size and mesh, swept over more degrees than its two
FIG6A = FIGURES["fig6a"]
POINTS = FIG6A.points["full"] | {"k": [5.0, 10.0, 20.0, 40.0, 80.0]}


def main() -> None:
    N, P = POINTS["n"], POINTS["p"]
    k_star = crossover_degree(N, P)
    print(f"analytic 1D/2D crossover for n={N}, P={P}: k = {k_star:.1f}")
    print(f"(paper's design point: k = 34 for n=4e7, P=400)\n")

    rows = []
    measured_crossover = None
    previous_sign = None
    levels = FIG6A.sweep(POINTS, 3)
    for k in POINTS["k"]:
        v1 = sum(r["volume_1d"] for r in levels if r["k"] == k)
        v2 = sum(r["volume_2d"] for r in levels if r["k"] == k)
        winner = "1D" if v1 < v2 else "2D"
        rows.append([k, v1, v2, f"{v1 / v2:.2f}", winner])
        sign = v1 < v2
        if previous_sign is not None and sign != previous_sign and measured_crossover is None:
            measured_crossover = k
        previous_sign = sign
    print(format_table(["k", "1D volume", "2D volume", "1D/2D", "winner"], rows))

    if measured_crossover is not None:
        print(
            f"\nmeasured crossover between k={measured_crossover / 2:.0f} "
            f"and k={measured_crossover:.0f}; analytic prediction {k_star:.1f}"
        )
    print(
        "\npaper's conclusion: 1D wins on low-degree graphs (short expand), "
        "2D wins on high-degree graphs (collectives over sqrt(P) ranks)."
    )


if __name__ == "__main__":
    main()
