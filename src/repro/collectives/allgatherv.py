"""Direct expand: one round, every member sends its frontier to every peer.

With ``dest_filter`` this is the scalable variant of Section 2.2 — a
personalized all-to-all where each destination only receives the frontier
vertices for which it holds non-empty partial edge lists.  Without a
filter it degenerates to the unscalable dense all-gather the paper warns
about, kept as a baseline for the collective ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.base import (
    ExpandCollective,
    Schedule,
    _validate_disjoint,
    _validate_group,
    register_expand,
)
from repro.runtime.comm import Communicator, _as_payload
from repro.runtime.stats import CommStats
from repro.types import VERTEX_DTYPE


@register_expand
class DirectExpand(ExpandCollective):
    """Single-round broadcast-style expand with optional per-destination filter."""

    name = "direct"

    def _schedule(
        self,
        stats: CommStats,
        group: list[int],
        contributions: list[np.ndarray],
        phase: str,
        dest_filter,
    ) -> Schedule:
        size = len(group)
        received: list[list[np.ndarray]] = [[] for _ in range(size)]
        outbox: dict[int, dict[int, np.ndarray]] = {}
        for g, payload in enumerate(contributions):
            for d in range(size):
                if d == g:
                    continue
                to_send = payload if dest_filter is None else dest_filter(g, d)
                if np.size(to_send) == 0:
                    continue
                outbox.setdefault(group[g], {})[group[d]] = to_send
        inbox = yield outbox
        rank_to_index = {rank: idx for idx, rank in enumerate(group)}
        for dst_rank, deliveries in inbox.items():
            for _src, payload in deliveries:
                received[rank_to_index[dst_rank]].append(payload)
                stats.record_delivery(dst_rank, int(payload.size), phase)
        return received

    def expand_many(
        self,
        comm: Communicator,
        groups: list[list[int]],
        contributions_per_group: list[list[np.ndarray]],
        phase: str = "expand",
        dest_filters: list | None = None,
    ) -> list[list[list[np.ndarray]]]:
        # Single-round collective: the whole lockstep run is one merged
        # exchange, so build its message arrays directly.
        _validate_disjoint(groups, len(contributions_per_group))
        received: list[list[list[np.ndarray]]] = []
        srcs: list[int] = []
        dsts: list[int] = []
        payloads: list[np.ndarray] = []
        for idx, (group, contributions) in enumerate(
            zip(groups, contributions_per_group)
        ):
            _validate_group(group, len(contributions))
            dest_filter = dest_filters[idx] if dest_filters is not None else None
            size = len(group)
            group_received: list[list[np.ndarray]] = [[] for _ in range(size)]
            for g in range(size):
                payload = contributions[g]
                for d in range(size):
                    if d == g:
                        continue
                    to_send = payload if dest_filter is None else dest_filter(g, d)
                    if np.size(to_send) == 0:
                        continue
                    to_send = _as_payload(to_send)
                    srcs.append(group[g])
                    dsts.append(group[d])
                    payloads.append(to_send)
                    group_received[d].append(to_send)
            received.append(group_received)
        sizes = np.array([p.size for p in payloads], dtype=np.int64)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        flat = np.concatenate(payloads) if payloads else np.empty(0, VERTEX_DTYPE)
        dst_arr = np.array(dsts, dtype=np.int64)
        arrived = comm.exchange_arrays(
            np.array(srcs, dtype=np.int64),
            dst_arr,
            flat,
            bounds[:-1],
            bounds[1:],
            phase,
            participants=sorted(rank for group in groups for rank in group),
        )
        if arrived is not None:
            # a fault withheld chunks: hand over only the ones that arrived
            msg, starts, stops = arrived
            slot_of = {
                rank: slot
                for group, slots in zip(groups, received)
                for rank, slot in zip(group, slots)
            }
            for slot in slot_of.values():
                slot.clear()
            for m, a, b in zip(msg.tolist(), starts.tolist(), stops.tolist()):
                slot_of[dsts[m]].append(flat[a:b])
            dst_arr, sizes = dst_arr[msg], stops - starts
        comm.stats.record_delivery_bulk(dst_arr, sizes, phase)
        return received
