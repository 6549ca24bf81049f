"""The union rings against a round-by-round reference written with sets.

A fold's union rings run as one stacked exchange: one segmented unique
over every contribution, bundle sizes as cumulative counts of first
arrivals.  The reference below shares none of that.  It walks every ring
the way the paper's Figure 2 draws it, one round at a time with Python
sets: the bundle for column ``k`` starts at column ``k + 1``, each holder
unions its own contributions in and hands the bundle on.  Then, for a
two-phase fold, each finished lane goes straight down its column group.
Whatever the reference puts on the wire, in order, the message trace
must show; its unions must be what the members end up holding; and the
duplicate and processed counters must match its arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.base import get_fold
from tests.test_collectives import pack, torus_comm

SHAPES = [(1, g) for g in range(1, 10)] + [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]


def reference(outboxes, a: int, b: int):
    """Round-by-round union rings of one group, then the column delivery.

    ``outboxes[m][d]`` is what member ``m`` addresses to member ``d``.
    Returns ``(rounds, lanes)``: ``rounds[t]`` lists round ``t``'s
    messages as ``(src member, dst member, vertices)`` in sender order
    (the delivery is round ``b - 1``), and ``lanes[m][r2]`` is the set
    member ``m`` holds for ``(r2, m % b)`` once the rings are done.
    """
    rounds = [[] for _ in range(b - 1)]
    lanes = {}
    for r in range(a):
        for k in range(b):
            bundle = [set() for _ in range(a)]

            def fold_in(c):
                for r2 in range(a):
                    bundle[r2] |= set(outboxes[r * b + c].get(r2 * b + k, []))

            holder = (k + 1) % b
            fold_in(holder)
            for t in range(b - 1):
                size = sum(len(lane) for lane in bundle)
                successor = (holder + 1) % b
                if size:
                    rounds[t].append((r * b + holder, r * b + successor, size))
                holder = successor
                fold_in(holder)
            lanes[r * b + k] = bundle
    delivery = [
        (m, r2 * b + m % b, len(lanes[m][r2]))
        for m in range(a * b)
        for r2 in range(a)
        if r2 != m // b and lanes[m][r2]
    ]
    return [sorted(messages) for messages in rounds] + [delivery], lanes


def random_outboxes(size: int, rng: np.random.Generator, empty: bool, pool=np.arange(30)):
    """Dict outboxes drawn from a small ``pool`` of vertex ids (plenty of
    duplicates); some members address nobody."""
    outboxes = []
    for _ in range(size):
        per_dest = {}
        if not empty and rng.random() < 0.8:
            for d in range(size):
                if rng.random() < 0.7:
                    per_dest[d] = sorted(set(rng.choice(pool, rng.integers(0, 9)).tolist()))
        outboxes.append(per_dest)
    return outboxes


def scattered(ngroups: int, size: int, rng: np.random.Generator):
    """Groups over a shuffled rank set with two ranks left out."""
    nranks = ngroups * size + 2
    return nranks, rng.permutation(nranks)[: ngroups * size].reshape(ngroups, size).tolist()


@pytest.mark.parametrize("shape", SHAPES)
@given(seed=st.integers(0, 10**6), ngroups=st.integers(1, 3), empty=st.booleans())
@settings(max_examples=6, deadline=None)
def test_rings_match_the_set_reference(shape, seed, ngroups, empty):
    rng = np.random.default_rng(seed)
    nranks, groups = scattered(ngroups, shape[0] * shape[1], rng)
    outboxes = [random_outboxes(shape[0] * shape[1], rng, empty) for _ in groups]
    assert_matches_reference(shape, nranks, groups, outboxes)


@pytest.mark.parametrize("shape", [(1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (3, 5), (2, 6), (2, 7)])
@given(
    seed=st.integers(0, 10**6),
    ngroups=st.integers(1, 2),
    pool=st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True),
)
@settings(max_examples=6, deadline=None)
def test_wide_vertex_ids_match_the_set_reference(shape, seed, ngroups, pool):
    """Vertex ids up to 2**40 on rings whose round field is not a power of
    two wide (b = 3, 5, 6, 7): the packed (chunk, vertex, round) key
    decodes to what the sets say."""
    rng = np.random.default_rng(seed)
    nranks, groups = scattered(ngroups, shape[0] * shape[1], rng)
    pool = np.array(pool, dtype=np.int64)
    outboxes = [random_outboxes(shape[0] * shape[1], rng, False, pool) for _ in groups]
    assert_matches_reference(shape, nranks, groups, outboxes)


def assert_matches_reference(shape, nranks, groups, outboxes):
    """Fold ``outboxes`` (one list per group) over ``groups`` and hold the
    message trace, the unions and the counters to :func:`reference`."""
    a, b = shape
    size = a * b
    comm = torus_comm(nranks, observe="messages")
    comm.stats.begin_level(0)
    fold = get_fold("union-ring") if a == 1 else get_fold("two-phase", shape=shape)
    flat, bounds, _ = fold.fold(comm, groups, *pack(outboxes))
    level = comm.stats.end_level(0)

    per_group = [reference(group_outboxes, a, b) for group_outboxes in outboxes]
    expected = []
    for t in range(b if a > 1 else b - 1):
        # lockstep: round t of every group, groups in order
        messages = [
            (group[s], group[d], n)
            for group, (rounds, _) in zip(groups, per_group)
            for s, d, n in rounds[t]
        ]
        if messages:
            expected.append(messages)
    # a round's messages leave at one clock reading, later rounds later
    by_round = {}
    for e in comm.obs_trace.events:
        by_round.setdefault(e.time, []).append((e.src, e.dst, e.num_vertices))
    assert list(by_round.values()) == expected
    # stamped on entry: the first round leaves at 0, later rounds later
    assert list(by_round) == sorted(by_round) and min(by_round, default=0.0) == 0.0
    processed = sum(n for messages in expected for *_, n in messages)
    assert level.processed == comm.stats.total_processed == processed
    contributed = held = 0
    for i, (group_outboxes, (_, lanes)) in enumerate(zip(outboxes, per_group)):
        contributed += sum(len(p) for per_dest in group_outboxes for p in per_dest.values())
        for d in range(size):
            # what member d holds: each row's reduced lane for it, rows in order
            got = flat[bounds[i * size + d] : bounds[i * size + d + 1]].tolist()
            want = [
                v for r in range(a) for v in sorted(lanes[r * b + d % b][d // b])
            ]
            assert got == want
            held += len(want)
    assert level.duplicates_eliminated == contributed - held
    if contributed == 0:
        assert expected == [] and level.duplicates_eliminated == 0
