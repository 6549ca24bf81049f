"""The reproduction, asserted: every ``FIGURES`` claim at its ``full`` points.

Each table entry (Figures 4.a-7, Table 1, the Section 3.1 / 2.4 analytic
checks, the platform comparison, the DESIGN.md section 5 ablations and the
codec, sieve, direction, fault and chaos extensions) is regenerated once at
the ``full`` tier, printed in the paper's row format (``pytest -s``),
compared bit for bit with its pinned rows
(``tests/data/reproduction_rows.json``) and checked against every claim
that holds on that tier.  ``repro-bfs figure --name ID --tier full``
prints one entry; EXPERIMENTS.md records paper vs. measured.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import emit
from repro.harness import views
from repro.harness.figures import FIGURES

PINNED = json.loads(
    (Path(__file__).resolve().parent.parent / "tests/data/reproduction_rows.json").read_text()
)
CLAIMS = [
    pytest.param(fig, claim, id=claim.id)
    for fig in FIGURES.values() for claim in fig.claims if "full" in claim.tiers
]


@pytest.fixture(scope="module")
def full_rows():
    """Each figure's ``full`` rows, swept (and printed) once per session."""
    swept = {}

    def rows_of(fig):
        if fig.id not in swept:
            swept[fig.id] = fig.rows("full")
            emit(fig.id, views.render(fig, swept[fig.id], "full"))
        return swept[fig.id]

    return rows_of


@pytest.mark.parametrize("fig", FIGURES.values(), ids=list(FIGURES))
def test_rows_match_parent(fig, full_rows):
    pinned = PINNED[f"{fig.id}/full"]
    assert views.pin_rows(full_rows(fig), pinned) == pinned


@pytest.mark.parametrize("fig, claim", CLAIMS)
def test_claim(fig, claim, full_rows):
    passed, measured = claim.check(full_rows(fig))
    assert passed, f"{fig.source}: {claim.text} (measured: {measured})"
