"""The paper's two-phase grouped-ring collectives (Section 3.2.2).

The communicator group (a processor-row for fold, a processor-column for
expand) is arranged as an ``a x b`` subgrid; ring diameter shrinks from
``G-1`` to ``O(a + b)`` by running rings *within* row/column subgroups in
parallel:

* **fold** (Figure 2): phase 1 circulates, within each subgrid row, one
  bundle per subgrid *column group*, set-union-reducing the
  per-final-destination sub-chunks as they travel; phase 2 delivers each
  reduced sub-chunk point-to-point within the column group.
* **expand** (Figure 3): phase 1 exchanges contributions within each
  column group; phase 2 circulates the column-group bundles around each
  row ring.

Both run in ``O(a + b)`` rounds — the paper's ``O(m + n)`` for an
``m x n`` processor grid.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.alltoallv import DirectFold
from repro.collectives.base import ExpandCollective, register_expand, register_fold


def subgrid_shape(size: int) -> tuple[int, int]:
    """Most-square factorisation ``(a, b)`` of ``size`` with ``a <= b``."""
    if size < 1:
        raise ValueError(f"group size must be positive, got {size}")
    a = int(size**0.5)
    while size % a:
        a -= 1
    return a, size // a


class _Subgrid:
    """An explicit ``(a, b)`` subgrid, or the most-square one."""

    def __init__(self, shape: tuple[int, int] | None = None) -> None:
        self.shape = shape

    def _subgrid(self, size: int) -> tuple[int, int]:
        a, b = self.shape if self.shape is not None else subgrid_shape(size)
        if a * b != size:
            raise ValueError(f"subgrid {a}x{b} does not cover group of {size}")
        return a, b


@register_fold
class TwoPhaseFold(_Subgrid, DirectFold):
    """Figure 2: row-ring union reduction, then column-group delivery.

    Phase 1 is the union-fold ring run inside every subgrid row; what is
    left for phase 2 is a direct fold whose only non-empty blocks stay
    within a column group.
    """

    name = "two-phase"
    _rings = _Subgrid._subgrid


@register_expand
class TwoPhaseExpand(_Subgrid, ExpandCollective):
    """Figure 3: column-group exchange, then row-ring circulation."""

    name = "two-phase"

    def _rounds(self, size: int):
        a, b = self._subgrid(size)
        # one entry per (member, subgrid row): member (r, c) = r * b + c
        member = np.repeat(np.arange(size, dtype=np.int64), a)
        row = np.tile(np.arange(a, dtype=np.int64), size)
        col = member % b
        # phase 1: everyone sends its block to its column-group peers
        peer = row * b + col
        apart = peer != member
        yield member[apart], peer[apart], member[apart]
        # phase 2: the column-group bundles circulate the row rings
        succ = member - col + (col + 1) % b
        for hops in range(b - 1):
            yield member, succ, row * b + (col - hops) % b
