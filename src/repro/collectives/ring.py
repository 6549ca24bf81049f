"""Single-ring collectives.

Ring communication is the natural point-to-point pattern on a torus
(Section 3.2.2): every member talks only to its ring successor, so each
round is contention-free nearest-neighbour traffic when the mapping is
good.  :class:`RingExpand` is a classic all-gather ring;
:class:`UnionRingFold` is the paper's *union-fold*, a ring reduce-scatter
with set-union as the reduction; :class:`RingFold` forwards personalized
chunks around the ring *without* in-flight reduction (the union-free
baseline for Figure 7's comparison).

Note on statistics: vertices are counted as *processed* at every hop,
including pure forwarding hops — the paper's Figure 7 accounting ("each
processor receives more messages ... because it passes the messages using
ring communications") — while *deliveries* are only recorded at the rank
that needs the data.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import (
    ExpandCollective,
    FoldCollective,
    register_expand,
    register_fold,
)


@register_expand
class RingExpand(ExpandCollective):
    """All-gather ring: G-1 rounds, each member forwards what it last received."""

    name = "ring"

    def _rounds(self, size: int):
        member = np.arange(size, dtype=np.int64)
        for hops in range(size - 1):
            # everyone holds its hops-th predecessor's block
            yield member, (member + 1) % size, (member - hops) % size


@register_fold
class RingFold(FoldCollective):
    """Personalized ring fold: chunks hop forward until they reach their target.

    No in-flight reduction — duplicates survive until the receiving rank
    merges them.  Round ``t`` moves every not-yet-delivered chunk one hop
    (a member forwards what its ``t``-th predecessor addressed further
    on, by destination), so a group is done after at most G-1 rounds —
    earlier when its long-haul chunks are all empty.
    """

    name = "ring"
    idle_groups_leave = True

    def _rounds(self, size: int):
        holder, dest = np.divmod(np.arange(size * size, dtype=np.int64), size)
        for hops in range(size - 1):
            origin = (holder - hops) % size
            moving = (dest - origin) % size > hops
            yield (
                holder[moving],
                (holder[moving] + 1) % size,
                (origin * size + dest)[moving],
            )


@register_fold
class UnionRingFold(FoldCollective):
    """Reduce-scatter over a ring with set-union as the reduction operation.

    Each destination's chunk travels the full ring exactly once, starting
    at the destination's successor; every rank it visits unions its own
    contribution in, eliminating duplicate vertex ids while the message
    is in flight (Sections 2.2 and 3.2.2).  Each rank sends exactly one
    chunk per round — perfectly balanced: G-1 rounds of one message each.
    """

    name = "union-ring"

    def _rings(self, size: int) -> tuple[int, int]:
        # one union ring spanning the whole group; its last round delivers
        return 1, size
