"""Tests for the collectives: one property over every routing program.

Whatever the program (direct, ring, union-ring, two-phase, bruck /
recursive doubling), the array driver must hand every member the same
*content* — a fold delivers everything addressed to it (set-union-reduced
by the reducing programs), an expand delivers every peer's block — and
differ only in rounds, messages and what the statistics count.
"""

from __future__ import annotations

import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.base import get_expand, get_fold
from repro.collectives.two_phase import subgrid_shape
from repro.errors import CommunicationError
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.mapping import row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.comm import Communicator
from repro.types import GridShape, VERTEX_DTYPE

EXPAND_NAMES = ["ring", "two-phase", "recursive-doubling"]
FOLD_NAMES = ["direct", "ring", "union-ring", "two-phase", "bruck"]
REDUCING = {"union-ring", "two-phase"}

Outboxes = list[dict[int, np.ndarray]]


def torus_comm(p: int, **kwargs) -> Communicator:
    grid = GridShape(1, p)
    return Communicator(row_major_mapping(grid, Torus3D(p, 1, 1)), BLUEGENE_L, **kwargs)


def pack(outboxes_per_group: list[Outboxes]) -> tuple[np.ndarray, np.ndarray]:
    """Dict outboxes -> the fold driver's pooled ``(csizes, cflat)``.

    ``outboxes_per_group[i][g][d]`` is what member ``g`` of group ``i``
    addresses to in-group member ``d``; slot ``(i * size + g) * size + d``.
    """
    size = len(outboxes_per_group[0])
    sizes, parts = [], []
    for outboxes in outboxes_per_group:
        for per_dest in outboxes:
            for d in range(size):
                payload = np.asarray(per_dest.get(d, ()), dtype=VERTEX_DTYPE)
                sizes.append(payload.size)
                parts.append(payload)
    return np.array(sizes, dtype=np.int64), np.concatenate(parts)


def run_fold(name, comm, groups, outboxes_per_group, **kwargs) -> list[np.ndarray]:
    """Fold dict outboxes; what each member received, by segment."""
    flat, bounds, _ = get_fold(name, **kwargs).fold(
        comm, groups, *pack(outboxes_per_group)
    )
    return [flat[bounds[s] : bounds[s + 1]] for s in range(bounds.size - 1)]


def addressed_to(outboxes: Outboxes, d: int) -> np.ndarray:
    return np.concatenate(
        [np.asarray(per_dest.get(d, ()), dtype=VERTEX_DTYPE) for per_dest in outboxes]
    )


def random_outboxes(size: int, seed: int, dense: bool = False) -> Outboxes:
    """Empty members, self-addressed chunks and duplicates included."""
    rng = np.random.default_rng(seed)
    outboxes = []
    for _g in range(size):
        per_dest = {}
        if dense or rng.random() < 0.85:  # some members address nobody
            for d in range(size):
                if dense or rng.random() < 0.7:
                    length = int(rng.integers(0, 12))
                    per_dest[d] = rng.integers(0, 40, length).astype(VERTEX_DTYPE)
        outboxes.append(per_dest)
    return outboxes


def rounds_of(comm: Communicator) -> int:
    return len(comm.obs.by_cat("round"))


def scattered_groups(ngroups: int, size: int, seed: int) -> tuple[int, list[list[int]]]:
    """Disjoint groups over a shuffled rank set with two ranks left out."""
    nranks = ngroups * size + 2
    ranks = np.random.default_rng(seed).permutation(nranks)[: ngroups * size]
    return nranks, ranks.reshape(ngroups, size).tolist()


class TestSubgridShape:
    @pytest.mark.parametrize(
        "size,expected", [(1, (1, 1)), (6, (2, 3)), (16, (4, 4)), (7, (1, 7)), (12, (3, 4))]
    )
    def test_most_square(self, size, expected):
        assert subgrid_shape(size) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            subgrid_shape(0)


class TestRegistry:
    def test_known_names(self):
        for name in EXPAND_NAMES:
            assert get_expand(name).name == name
        for name in FOLD_NAMES:
            assert get_fold(name).name == name

    def test_unknown_name(self):
        with pytest.raises(CommunicationError):
            get_fold("nope")
        with pytest.raises(CommunicationError):
            get_expand("nope")
        # the direct expand is the engines' own single round, not a program
        with pytest.raises(CommunicationError):
            get_expand("direct")


SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 12]  # 1, primes and composites


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("ngroups", [1, 2, 3])
@pytest.mark.parametrize("fold_name", FOLD_NAMES)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_fold_delivers_everything_addressed(fold_name, ngroups, size, seed):
    nranks, groups = scattered_groups(ngroups, size, seed)
    outboxes = [random_outboxes(size, seed + i) for i in range(ngroups)]
    comm = torus_comm(nranks, observe="spans")
    comm.stats.begin_level(0)
    received = run_fold(fold_name, comm, groups, outboxes)
    level = comm.stats.end_level(0)
    sent = delivered = 0
    a, b = subgrid_shape(size)
    longest = 0  # furthest a non-empty chunk travels around the ring
    for i in range(ngroups):
        for d in range(size):
            want = addressed_to(outboxes[i], d)
            got = received[i * size + d]
            sent += want.size
            delivered += got.size
            assert np.array_equal(np.unique(got), np.unique(want))
            if fold_name == "union-ring":
                assert np.array_equal(got, np.unique(want))
            elif fold_name not in REDUCING:
                # every arrival, duplicates and all
                assert np.array_equal(np.sort(got), np.sort(want))
        for g, per_dest in enumerate(outboxes[i]):
            for d, payload in per_dest.items():
                if payload.size:
                    longest = max(longest, (d - g) % size)
    if fold_name in REDUCING:
        assert level.duplicates_eliminated == sent - delivered
    else:
        assert level.duplicates_eliminated == 0
        assert delivered == sent
    assert rounds_of(comm) == {
        "direct": 1,
        "ring": longest,
        "union-ring": size - 1,
        "bruck": math.ceil(math.log2(size)),
        "two-phase": b,  # b - 1 ring rounds and the column-group delivery
    }[fold_name]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("ngroups", [1, 2, 3])
@pytest.mark.parametrize("expand_name", EXPAND_NAMES)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_expand_delivers_every_peer_block(expand_name, ngroups, size, seed):
    nranks, groups = scattered_groups(ngroups, size, seed)
    rng = np.random.default_rng(seed)
    blocks = [
        rng.integers(0, 50, int(rng.integers(0, 8))).astype(VERTEX_DTYPE)
        for _ in range(nranks)
    ]
    bounds = np.concatenate(([0], np.cumsum([blk.size for blk in blocks])))
    comm = torus_comm(nranks, observe="spans")
    comm.stats.begin_level(0)
    flat, inc_bounds, _ = get_expand(expand_name).expand(
        comm, groups, np.concatenate(blocks), bounds
    )
    level = comm.stats.end_level(0)
    assert inc_bounds.size == nranks + 1
    members = {rank for group in groups for rank in group}
    for rank in range(nranks):
        got = flat[inc_bounds[rank] : inc_bounds[rank + 1]]
        if rank not in members:
            assert got.size == 0
            continue
        group = next(group for group in groups if rank in group)
        want = np.concatenate(
            [blocks[peer] for peer in group if peer != rank] + [blocks[0][:0]]
        )
        assert np.array_equal(np.sort(got), np.sort(want))
    assert level.expand_received == flat.size
    assert rounds_of(comm) == {
        "ring": size - 1,
        "recursive-doubling": math.ceil(math.log2(size)),
        "two-phase": subgrid_shape(size)[1],
    }[expand_name]


class TestMaskColumn:
    """A batch's mask words ride every forwarding program beside their
    vertex ids: each word still sits next to its own vertex on arrival,
    and every hop charges 8 more bytes per entry (no more messages)."""

    @pytest.mark.parametrize("fold_name", ["direct", "ring", "bruck"])
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=8, deadline=None)
    def test_fold_carries_masks(self, fold_name, seed):
        size = 5
        nranks, groups = scattered_groups(2, size, seed)
        csizes, cflat = pack([random_outboxes(size, seed + i) for i in range(2)])
        # word k names entry k, so a word that drifted off its vertex shows
        masks = np.arange(cflat.size, dtype=np.uint64)
        plain, masked = torus_comm(nranks), torus_comm(nranks)
        get_fold(fold_name).fold(plain, groups, csizes, cflat)
        flat, bounds, words = get_fold(fold_name).fold(
            masked, groups, csizes, cflat, masks=masks
        )
        entry = words.astype(np.int64)
        assert np.array_equal(cflat[entry], flat)
        slot = np.repeat(np.arange(csizes.size), csizes)
        holder = slot // size
        dest = holder - holder % size + slot % size
        for seg in range(2 * size):
            got = np.sort(entry[bounds[seg] : bounds[seg + 1]])
            assert np.array_equal(got, np.flatnonzero(dest == seg))
        extra = masked.stats.total_bytes - plain.stats.total_bytes
        assert extra == 8 * plain.stats.total_processed
        assert masked.stats.total_messages == plain.stats.total_messages

    @pytest.mark.parametrize("expand_name", EXPAND_NAMES)
    def test_expand_carries_masks(self, expand_name):
        nranks, groups = scattered_groups(2, 6, seed=4)
        rng = np.random.default_rng(4)
        sizes = rng.integers(0, 6, nranks)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        flat = rng.integers(0, 30, bounds[-1]).astype(VERTEX_DTYPE)
        masks = np.arange(flat.size, dtype=np.uint64)
        plain, masked = torus_comm(nranks), torus_comm(nranks)
        want, want_bounds, none = get_expand(expand_name).expand(plain, groups, flat, bounds)
        got, got_bounds, words = get_expand(expand_name).expand(
            masked, groups, flat, bounds, masks=masks
        )
        assert none is None
        assert np.array_equal(got, want) and np.array_equal(got_bounds, want_bounds)
        assert np.array_equal(flat[words.astype(np.int64)], got)
        extra = masked.stats.total_bytes - plain.stats.total_bytes
        assert extra == 8 * plain.stats.total_processed

    def test_set_union_and_sieve_refuse_masks(self):
        csizes, cflat = pack([random_outboxes(4, 0)])
        masks = np.ones(cflat.size, dtype=np.uint64)
        for name in ("union-ring", "two-phase"):
            with pytest.raises(CommunicationError, match="mask column"):
                get_fold(name).fold(torus_comm(4), [list(range(4))], csizes, cflat, masks=masks)
        with pytest.raises(CommunicationError, match="through a sieve"):
            get_fold("direct").fold(
                torus_comm(4), [list(range(4))], csizes, cflat, sieve=object(), masks=masks
            )


class TestTwoPhaseShape:
    @pytest.mark.parametrize("shape", [(1, 8), (2, 4), (4, 2), (8, 1)])
    def test_explicit_shape(self, shape):
        outboxes = random_outboxes(8, seed=3)
        comm = torus_comm(8, observe="spans")
        received = run_fold("two-phase", comm, [list(range(8))], [outboxes], shape=shape)
        for d in range(8):
            assert np.array_equal(np.unique(received[d]), np.unique(addressed_to(outboxes, d)))
        assert rounds_of(comm) == shape[1]

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            run_fold(
                "two-phase", torus_comm(6), [list(range(6))],
                [random_outboxes(6, 0)], shape=(2, 2),
            )
        flat = np.arange(6, dtype=VERTEX_DTYPE)
        with pytest.raises(ValueError):
            get_expand("two-phase", shape=(2, 2)).expand(
                torus_comm(6), [list(range(6))], flat, np.arange(7)
            )

    def test_fold_rounds_scale_with_a_plus_b(self):
        """Two-phase fold uses O(a+b) rounds; the single ring uses G-1."""
        size = 16  # 4x4 subgrid
        outboxes = [
            {d: np.array([g], dtype=VERTEX_DTYPE) for d in range(size)}
            for g in range(size)
        ]
        comm_ring = torus_comm(size)
        run_fold("union-ring", comm_ring, [list(range(size))], [outboxes])
        comm_two = torus_comm(size)
        run_fold("two-phase", comm_two, [list(range(size))], [outboxes])
        assert comm_two.stats.total_messages < comm_ring.stats.total_messages


class TestAccounting:
    def test_duplicates_counted(self):
        size = 4
        comm = torus_comm(size)
        comm.stats.begin_level(0)
        # Every rank sends the same vertex to destination 0: 3 duplicates.
        outboxes = [{0: np.array([7], dtype=VERTEX_DTYPE)} for _ in range(size)]
        received = run_fold("union-ring", comm, [list(range(size))], [outboxes])
        level = comm.stats.end_level(0)
        assert received[0].tolist() == [7]
        assert level.duplicates_eliminated == size - 1

    def test_delivery_vs_processed_split(self):
        """Ring forwarding inflates processed volume but not delivered volume."""
        size = 5
        comm = torus_comm(size)
        comm.stats.begin_level(0)
        outboxes = [
            {d: np.array([g * 10 + d], dtype=VERTEX_DTYPE) for d in range(size)}
            for g in range(size)
        ]
        run_fold("ring", comm, [list(range(size))], [outboxes])
        level = comm.stats.end_level(0)
        delivered = level.fold_received
        assert delivered == size * (size - 1)  # one vertex per (src, dst!=src)
        assert level.processed > delivered  # forwarding hops

    @given(size=st.integers(2, 7), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_union_ring_never_moves_more_than_plain_ring(self, size, seed):
        outboxes = random_outboxes(size, seed, dense=True)
        plain = torus_comm(size)
        run_fold("ring", plain, [list(range(size))], [outboxes])
        union = torus_comm(size)
        run_fold("union-ring", union, [list(range(size))], [outboxes])
        assert union.stats.total_processed <= plain.stats.total_processed

    @given(size=st.integers(2, 7), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_direct_fold_delivers_exactly_what_was_addressed(self, size, seed):
        outboxes = random_outboxes(size, seed)
        comm = torus_comm(size)
        comm.stats.begin_level(0)
        run_fold("direct", comm, [list(range(size))], [outboxes])
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
    @settings(max_examples=25, deadline=None)
    def test_clock_decomposes_exactly(self, size, seed):
        comm = torus_comm(size)
        run_fold("union-ring", comm, [list(range(size))], [random_outboxes(size, seed)])
        comm.allreduce_sum(np.zeros(size))
        assert np.allclose(comm.clock.time, comm.clock.comm_time + comm.clock.compute_time)
        assert (comm.clock.time >= 0).all()


def test_union_rings_run_in_one_pass(monkeypatch):
    """A fold's union rings: one segmented unique and one stacked exchange
    for all b - 1 rounds, and no Python loop over rounds."""
    from repro.collectives import base

    tree = ast.parse(textwrap.dedent(inspect.getsource(base._union_rings)))
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    calls = {"unique": 0, "exchange": 0}
    unique, exchange = base.segmented_unique, Communicator.exchange_arrays

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(base, "segmented_unique", counted("unique", unique))
    monkeypatch.setattr(Communicator, "exchange_arrays", counted("exchange", exchange))
    size = 6
    comm = torus_comm(size, observe="spans")
    run_fold("union-ring", comm, [list(range(size))], [random_outboxes(size, 4, dense=True)])
    assert calls == {"unique": 1, "exchange": 1}
    assert rounds_of(comm) == size - 1


@pytest.mark.parametrize("name, shape", [("union-ring", None), ("two-phase", (2, 3))])
def test_union_ring_keys_that_overflow_63_bits_are_refused(name, shape):
    """A contribution's key packs (chunk, vertex, round) into one int64.
    With 6 chunks on 6-member rings (3 + 3 bits), or 12 chunks on rings of
    3 (4 + 2 bits), vertex ids below 2**57 fill the 63 bits exactly and
    fold as sets say; 2**57 needs a 64th bit, and is refused before anything
    is counted or charged."""
    size = 6
    kwargs = {} if shape is None else {"shape": shape}
    top = (1 << 57) - 1
    outboxes = [
        {d: np.array([top - d, top - g], dtype=VERTEX_DTYPE) for d in range(size)}
        for g in range(size)
    ]
    comm = torus_comm(size)
    received = run_fold(name, comm, [list(range(size))], [outboxes], **kwargs)
    for d, got in enumerate(received):
        want = sorted({top - d} | {top - g for g in range(size)})
        # two-phase: each row's reduced lane, rows in order
        assert (got.tolist() if shape is None else sorted(set(got.tolist()))) == want
    outboxes[4][1] = np.array([1 << 57], dtype=VERTEX_DTYPE)
    comm = torus_comm(size)
    with pytest.raises(CommunicationError, match=r"nchunk=(6|12), domain=\d+, b=(6|3)$"):
        run_fold(name, comm, [list(range(size))], [outboxes], **kwargs)
    assert not comm.clock.time.any()
    assert comm.stats.total_messages == comm.stats.total_duplicates == 0


class TestLockstep:
    def test_lockstep_groups_contend(self):
        """Two groups whose routes share torus links must be slower when run
        in lockstep than either running alone — the fidelity the lockstep
        driver adds."""
        payload = np.arange(50_000, dtype=VERTEX_DTYPE)
        # 0 -> 3 routes 0-1-2-3 and 1 -> 2 routes 1-2: the 1-2 link is shared
        groups = [[0, 3], [1, 2]]
        outboxes = [[{1: payload}, {}], [{1: payload}, {}]]
        comm_lock = torus_comm(8)
        run_fold("direct", comm_lock, groups, outboxes)
        alone = []
        for group, group_outboxes in zip(groups, outboxes):
            comm = torus_comm(8)
            run_fold("direct", comm, [group], [group_outboxes])
            alone.append(comm.clock.elapsed)
        assert comm_lock.clock.elapsed > max(alone) * 1.3  # shared link halves bandwidth

    def test_disjoint_routes_do_not_contend(self):
        payload = np.arange(50_000, dtype=VERTEX_DTYPE)
        groups = [[0, 1], [4, 5]]
        outboxes = [[{1: payload}, {}], [{1: payload}, {}]]
        comm_lock = torus_comm(8)
        run_fold("direct", comm_lock, groups, outboxes)
        comm_alone = torus_comm(8)
        run_fold("direct", comm_alone, groups[:1], outboxes[:1])
        assert comm_lock.clock.elapsed == pytest.approx(
            comm_alone.clock.elapsed, rel=1e-9
        )

    @given(size=st.integers(2, 6), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_lockstep_no_faster_than_groups_alone(self, size, seed):
        """Running two disjoint groups in lockstep can only add contention, so
        the makespan is at least each group's standalone makespan."""
        outboxes = [random_outboxes(size, seed), random_outboxes(size, seed + 1)]
        total = 2 * size
        groups = [list(range(size)), list(range(size, total))]
        lock = torus_comm(total)
        run_fold("direct", lock, groups, outboxes)
        alone_times = []
        for group, group_outboxes in zip(groups, outboxes):
            comm = torus_comm(total)
            run_fold("direct", comm, [group], [group_outboxes])
            alone_times.append(comm.clock.elapsed)
        assert lock.clock.elapsed >= max(alone_times) - 1e-12

    def test_idle_ring_groups_sit_rounds_out(self):
        """A ring group with nothing left in flight leaves the barrier."""
        far = {2: np.array([1], dtype=VERTEX_DTYPE)}  # two hops
        near = {1: np.array([2], dtype=VERTEX_DTYPE)}  # one hop
        comm = torus_comm(6, observe="spans")
        run_fold("ring", comm, [[0, 1, 2], [3, 4, 5]], [[far, {}, {}], [near, {}, {}]])
        assert [s.args["groups"] for s in comm.obs.by_cat("round")] == [2, 1]


@pytest.mark.parametrize("fold_name", FOLD_NAMES)
class TestGroupValidation:
    def test_unequal_group_sizes_rejected(self, fold_name):
        with pytest.raises(CommunicationError, match="one size"):
            get_fold(fold_name).fold(
                torus_comm(5), [[0, 1, 2], [3, 4]], np.zeros(13, dtype=np.int64),
                np.empty(0, dtype=VERTEX_DTYPE),
            )

    def test_overlapping_groups_rejected(self, fold_name):
        with pytest.raises(CommunicationError, match="distinct ranks"):
            run_fold(
                fold_name, torus_comm(4), [[0, 1], [1, 2]],
                [random_outboxes(2, 0), random_outboxes(2, 1)],
            )

    def test_duplicate_and_foreign_ranks_rejected(self, fold_name):
        with pytest.raises(CommunicationError):
            run_fold(fold_name, torus_comm(3), [[0, 0, 1]], [random_outboxes(3, 0)])
        with pytest.raises(CommunicationError, match="distinct ranks"):
            run_fold(fold_name, torus_comm(3), [[0, 1, 3]], [random_outboxes(3, 0)])

    def test_slot_count_mismatch_rejected(self, fold_name):
        with pytest.raises(CommunicationError, match="payload slots"):
            run_fold(fold_name, torus_comm(3), [[0, 1]], [random_outboxes(3, 0)])


@pytest.mark.parametrize("expand_name", EXPAND_NAMES)
def test_expand_validation(expand_name):
    flat = np.arange(4, dtype=VERTEX_DTYPE)
    expand = get_expand(expand_name)
    with pytest.raises(CommunicationError, match="one size"):
        expand.expand(torus_comm(4), [[0, 1, 2], [3]], flat, np.arange(5))
    with pytest.raises(CommunicationError, match="distinct ranks"):
        expand.expand(torus_comm(4), [[0, 1], [1, 2]], flat, np.arange(5))
    with pytest.raises(CommunicationError, match="CSR bounds"):
        expand.expand(torus_comm(4), [[0, 1], [2, 3]], flat, np.arange(4))
