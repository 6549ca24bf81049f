"""The conventional 1D partitioning, as the 2D layout it is (Section 2.2).

"The conventional 1D partitioning is equivalent to the 2D partitioning
with R = 1 or C = 1": on a ``1 x P`` mesh each rank's column chunk is its
own vertex block, so it stores the full edge lists of the vertices it
owns — Algorithm 1's layout.  ``OneDPartition`` is that partition under
its old name; build it as ``OneDPartition(graph, GridShape(1, P))``.
"""

from __future__ import annotations

from repro.partition.two_d import TwoDPartition


class OneDPartition(TwoDPartition):
    """A :class:`TwoDPartition`, named for the ``1 x P`` mesh it is built on."""
