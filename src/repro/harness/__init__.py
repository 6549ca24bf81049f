"""Reproduction harness: one runner, one table of figures, its views, fault sweeps."""

from repro.harness.runner import Outcome, Run, execute, write_csv, write_json
from repro.harness.figures import FIGURES, Claim, Figure
from repro.harness.views import Verdict, evaluate, format_scorecard, write_figure
from repro.harness.fault_sweep import (
    FaultSweepPoint,
    drop_rate_sweep,
    fault_sweep,
    format_fault_sweep,
)
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
    "FaultSweepPoint",
    "fault_sweep",
    "drop_rate_sweep",
    "format_fault_sweep",
    "format_table",
    "format_series",
]
