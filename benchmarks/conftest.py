"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
scaled-down design points recorded in DESIGN.md, prints the series in the
paper's row format, and asserts the paper's qualitative *shape* (who wins,
what grows, where the crossover falls).  Simulated times are not expected
to match the paper's absolute seconds — see EXPERIMENTS.md.
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print a labelled report block (shown with pytest -s; captured otherwise)."""
    bar = "=" * max(20, len(title))
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
