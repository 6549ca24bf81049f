"""Property tests on the cost/volume accounting itself.

These pin down *model* invariants (not just algorithm semantics): unions
never increase wire volume, contention never speeds anything up, delivered
counts equal what was addressed, and simulated time decomposes exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.base import get_fold
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.mapping import row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.comm import Communicator
from repro.types import GridShape, VERTEX_DTYPE

SLOW = settings(max_examples=25, deadline=None)


def torus_comm(p: int) -> Communicator:
    grid = GridShape(1, p)
    return Communicator(row_major_mapping(grid, Torus3D(p, 1, 1)), BLUEGENE_L)


def random_outboxes(size: int, seed: int, dense: bool = False):
    rng = np.random.default_rng(seed)
    out = []
    for _g in range(size):
        per_dest = {}
        for d in range(size):
            if dense or rng.random() < 0.6:
                per_dest[d] = rng.integers(0, 25, int(rng.integers(0, 15))).astype(
                    VERTEX_DTYPE
                )
        out.append(per_dest)
    return out


@given(size=st.integers(2, 7), seed=st.integers(0, 10**6))
@SLOW
def test_union_ring_never_moves_more_than_plain_ring(size, seed):
    outboxes = random_outboxes(size, seed, dense=True)
    plain = torus_comm(size)
    get_fold("ring").fold(plain, list(range(size)), outboxes)
    union = torus_comm(size)
    get_fold("union-ring").fold(union, list(range(size)), outboxes)
    assert union.stats.total_processed <= plain.stats.total_processed


@given(size=st.integers(2, 7), seed=st.integers(0, 10**6))
@SLOW
def test_direct_fold_delivers_exactly_what_was_addressed(size, seed):
    outboxes = random_outboxes(size, seed)
    comm = torus_comm(size)
    comm.stats.begin_level(0)
    get_fold("direct").fold(comm, list(range(size)), outboxes)
    level = comm.stats.end_level(0)
    addressed = sum(
        int(np.size(payload))
        for g, per_dest in enumerate(outboxes)
        for d, payload in per_dest.items()
        if d != g
    )
    assert level.fold_received == addressed
    assert level.processed == addressed  # one hop: processed == delivered


@given(size=st.integers(2, 7), seed=st.integers(0, 10**6))
@SLOW
def test_clock_decomposes_exactly(size, seed):
    comm = torus_comm(size)
    get_fold("union-ring").fold(comm, list(range(size)), random_outboxes(size, seed))
    comm.allreduce_sum(np.zeros(size))
    assert np.allclose(comm.clock.time, comm.clock.comm_time + comm.clock.compute_time)
    assert (comm.clock.time >= 0).all()


@given(seed=st.integers(0, 10**6), scale=st.integers(1, 5))
@SLOW
def test_contention_is_monotone_in_load(seed, scale):
    """Adding more traffic over the same link never reduces anyone's time."""
    from repro.runtime.network import Network

    grid = GridShape(1, 4)
    net = Network(row_major_mapping(grid, Torus3D(4, 1, 1)), BLUEGENE_L)
    rng = np.random.default_rng(seed)
    nbytes = rng.integers(1, 10_000, size=1 + scale) * BLUEGENE_L.bytes_per_vertex
    src = np.zeros(1 + scale, dtype=np.int64)
    base_send, _, _ = net.round_times_arrays(src[:1], src[:1] + 1, nbytes[:1])
    extra_send, _, _ = net.round_times_arrays(src, src + 1, nbytes)
    assert extra_send[0] >= base_send[0]


@given(size=st.integers(2, 6), seed=st.integers(0, 10**6))
@SLOW
def test_lockstep_no_faster_than_groups_alone(size, seed):
    """Running two disjoint groups in lockstep can only add contention, so
    the makespan is at least each group's standalone makespan."""
    outboxes_a = random_outboxes(size, seed)
    outboxes_b = random_outboxes(size, seed + 1)
    total = 2 * size
    groups = [list(range(size)), list(range(size, total))]

    lock = torus_comm(total)
    get_fold("direct").fold_many(lock, groups, [outboxes_a, outboxes_b])

    alone_times = []
    for group, outboxes in zip(groups, (outboxes_a, outboxes_b)):
        comm = torus_comm(total)
        get_fold("direct").fold(comm, group, outboxes)
        alone_times.append(comm.clock.elapsed)
    assert lock.clock.elapsed >= max(alone_times) - 1e-12
