"""Reproduction harness: one runner, one table of figures, its views."""

from repro.harness.runner import Outcome, Run, execute, write_csv, write_json
from repro.harness.figures import FIGURES, Claim, Figure
from repro.harness.views import Verdict, evaluate, format_scorecard, write_figure
from repro.harness.report import format_table, format_series

__all__ = [
    "Run",
    "Outcome",
    "execute",
    "write_csv",
    "write_json",
    "FIGURES",
    "Figure",
    "Claim",
    "Verdict",
    "evaluate",
    "format_scorecard",
    "write_figure",
    "format_table",
    "format_series",
]
