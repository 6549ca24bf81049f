"""Logarithmic collectives: Bruck all-to-all and recursive-doubling all-gather.

The paper's ring collectives pay O(G) rounds with nearest-neighbour
traffic — ideal on a torus when bandwidth dominates.  The classic
alternative trades volume for latency: the Bruck algorithm finishes a
personalized all-to-all in ceil(log2 G) rounds (each message is forwarded
up to log G times), and recursive doubling an all-gather in as many, for
any group size.  They are *ablation baselines*: on BlueGene/L-sized
messages the paper's bandwidth-friendly rings should win.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import (
    ExpandCollective,
    FoldCollective,
    register_expand,
    register_fold,
)


@register_fold
class BruckFold(FoldCollective):
    """Bruck personalized all-to-all: ceil(log2 G) rounds of combined messages.

    Round ``j`` moves, from rank ``i`` to rank ``(i + 2^j) mod G``, every
    chunk whose hop count ``(d - src) mod G`` has bit ``j`` set — after all
    rounds each chunk has travelled its hop count in binary.  A member
    carries what it kept before what it was sent, so its carry order is
    by distance already travelled, then destination.
    """

    name = "bruck"

    def _rounds(self, size: int):
        origin, dest = np.divmod(np.arange(size * size, dtype=np.int64), size)
        hops = (dest - origin) % size
        step = 1
        while step < size:
            travelled = hops & (step - 1)
            holder = (origin + travelled) % size
            order = np.lexsort((dest, travelled, holder))
            order = order[(hops[order] & step) != 0]
            yield holder[order], (holder[order] + step) % size, order
            step <<= 1


@register_expand
class RecursiveDoublingExpand(ExpandCollective):
    """All-gather by recursive doubling (Bruck variant for any group size).

    Round ``j``: rank ``i`` sends the first ``min(2^j, G - 2^j)`` of its
    gathered blocks (origins ``i, i+1, ...``) to ``(i - 2^j) mod G`` — the
    gathered set doubles every round, completing in ceil(log2 G) rounds.
    """

    name = "recursive-doubling"

    def _rounds(self, size: int):
        step = 1
        while step < size:
            count = min(step, size - step)  # what the receiver still lacks
            member = np.repeat(np.arange(size, dtype=np.int64), count)
            ahead = np.tile(np.arange(count, dtype=np.int64), size)
            yield member, (member - step) % size, (member + ahead) % size
            step <<= 1
