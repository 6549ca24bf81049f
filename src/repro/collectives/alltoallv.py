"""Direct personalized all-to-all fold: one round, every pair communicates.

This is the "straightforward use of all-to-all" the paper starts from
(Section 2.2): no in-flight reduction, so duplicate vertices travel the
wire and are only merged at the receiver.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import FoldCollective, register_fold


@register_fold
class DirectFold(FoldCollective):
    """Single-round personalized all-to-all (alltoallv)."""

    name = "direct"
    #: one hop: a withheld wire chunk is simply not handed over
    lossy = True

    def _rounds(self, size: int):
        origin, dest = np.divmod(np.arange(size * size, dtype=np.int64), size)
        wire = origin != dest  # self-addressed blocks are local hand-offs
        yield origin[wire], dest[wire], np.flatnonzero(wire)
