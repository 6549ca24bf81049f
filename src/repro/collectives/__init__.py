"""Collective communication algorithms built from point-to-point rounds.

Two families, matching the two communication steps of Algorithm 2:

* **expand** (all-gather-like): every group member contributes one array and
  everyone must end up with all contributions.
* **fold** (all-to-all / reduce-scatter-like): every member holds one array
  per destination; each destination must end up with the (optionally
  union-reduced) contributions addressed to it.

Every algorithm is a routing program run by its family's array driver
(:mod:`repro.collectives.base`): direct, single-ring, union-fold ring,
the paper's two-phase grouped rings (Section 3.2.2), log-round baselines.
"""

from repro.collectives.base import ExpandCollective, FoldCollective, get_expand, get_fold
from repro.collectives.alltoallv import DirectFold
from repro.collectives.ring import RingExpand, RingFold, UnionRingFold
from repro.collectives.two_phase import TwoPhaseExpand, TwoPhaseFold, subgrid_shape
from repro.collectives.bruck import BruckFold, RecursiveDoublingExpand

__all__ = [
    "BruckFold",
    "RecursiveDoublingExpand",
    "ExpandCollective",
    "FoldCollective",
    "get_expand",
    "get_fold",
    "DirectFold",
    "RingExpand",
    "RingFold",
    "UnionRingFold",
    "TwoPhaseExpand",
    "TwoPhaseFold",
    "subgrid_shape",
]
