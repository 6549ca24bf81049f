"""A ring's rounds priced and replayed as a (round x member) table.

The union ring hands ``Communicator.exchange_arrays`` its per-round size
table; ``Network.round_times_table`` prices it and ``SimClock.replay``
replays its barriers.  Each is held here against a test-side copy of the
per-message formulation it replaced — per-transfer seconds summed into
``(R x P)`` per-rank matrices by ``bincount``, then one ``advance_many`` +
``sync`` per round — bit for bit.  The satellites of the same change are
here too: the arithmetic block lookup and the bidirectional search's one
partition.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.collectives import get_fold
from repro.errors import CommunicationError
from repro.faults import FaultSpec
from repro.graph import build_graph
from repro.machine.bluegene import BLUEGENE_L, bluegene_l_torus_for
from repro.machine.mapping import TaskMapping, row_major_mapping
from repro.machine.torus import Torus3D
from repro.partition.base import BlockDistribution
from repro.runtime.clock import SimClock
from repro.runtime.comm import Communicator
from repro.runtime.network import Network
from repro.types import GraphSpec, GridShape

GRID = GridShape(4, 8)


def shuffled_mapping(seed: int) -> TaskMapping:
    return TaskMapping(GRID, Torus3D(4, 4, 2), np.random.default_rng(seed).permutation(GRID.size))


def subgrid_rings(a: int, b: int, ngroups: int, order: np.ndarray):
    """The union ring's pairs for ``ngroups`` groups of ``a x b`` members
    held by ranks ``order``: member ``r * b + c`` sends to ``r * b + (c +
    1) % b``."""
    seg = np.arange(ngroups * a * b)
    col = seg % b
    ranks = order[seg]
    return ranks, ranks[seg - col + (col + 1) % b]


def bincount_reference(net: Network, src, dst, active, nbytes, mult):
    """The per-message formulation: the cells as message rows, round-major
    and pairs ascending; seconds from the generic per-round analysis;
    per-rank sums by ``bincount`` over ``round * P + rank`` keys."""
    nranks = net.mapping.grid.size
    cells = np.flatnonzero(active)
    pair = cells % src.size
    bounds = np.searchsorted(cells, np.arange(active.shape[0] + 1) * src.size)
    _, _, seconds = net.round_times_arrays(
        src[pair], dst[pair], nbytes.ravel()[cells],
        None if mult is None else mult.ravel()[cells], rounds=bounds,
    )
    size = active.shape[0] * nranks
    key = cells // src.size * nranks
    send = np.bincount(key + src[pair], weights=seconds, minlength=size)
    recv = np.bincount(key + dst[pair], weights=seconds, minlength=size)
    return send.reshape(-1, nranks), recv.reshape(-1, nranks)


@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from([(1, 2), (1, 8), (2, 4), (4, 2), (2, 2), (1, 32), (4, 8)]),
    nrounds=st.integers(1, 64),
    occupancy=st.sampled_from(["random", "empty", "full", "sparse"]),
    faulted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_table_pricing_is_the_bincount_formulation(seed, shape, nrounds, occupancy, faulted):
    """For any (a, b) ring shape, random, empty, full and sparse tables
    (both the whole-table and the cell-by-cell form): the table's send and
    round-time rows, placed at their ranks, are the per-message
    ``bincount`` matrices bit for bit."""
    rng = np.random.default_rng(seed)
    a, b = shape
    net = Network(shuffled_mapping(seed % 7), BLUEGENE_L)
    src, dst = subgrid_rings(a, b, GRID.size // (a * b), rng.permutation(GRID.size))
    population = net.prepare_pairs(src, dst)
    assert population.ring_pred(src, dst) is not None
    if occupancy == "random":
        active = rng.random((nrounds, src.size)) < rng.choice([0.0, 0.5, 1.0], (nrounds, 1))
    elif occupancy == "sparse":
        active = rng.random((nrounds, src.size)) < 0.02
    else:
        active = np.full((nrounds, src.size), occupancy == "full")
    nbytes = rng.integers(1, 5000, active.shape) * active
    mult = rng.choice([1.0, 2.0, 3.5], active.shape) if faulted else None
    send, base = net.round_times_table(population, active, nbytes, mult)
    want_send, want_recv = bincount_reference(net, src, dst, active, nbytes, mult)
    assert send.tobytes() == want_send[:, src].tobytes()
    assert base.tobytes() == np.maximum(want_send, want_recv)[:, src].tobytes()
    assert not want_send[:, np.setdiff1d(np.arange(GRID.size), src)].any()


def test_table_pricing_needs_a_ring_and_a_slab():
    net = Network(shuffled_mapping(0), BLUEGENE_L)
    chain = net.prepare_pairs(np.array([0, 1]), np.array([1, 2]))
    assert chain.ring_pred(np.array([0, 1]), np.array([1, 2])) is None
    with pytest.raises(CommunicationError, match="ring population"):
        net.round_times_table(chain, np.ones((1, 2), bool), np.ones((1, 2), int))
    ring = net.prepare_pairs(np.array([0, 1]), np.array([1, 0]))
    with pytest.raises(CommunicationError, match="ring population"):  # not yet asked
        net.round_times_table(ring, np.ones((1, 2), bool), np.ones((1, 2), int))
    assert ring.ring_pred(np.array([0, 1]), np.array([1, 0])).tolist() == [1, 0]
    with pytest.raises(CommunicationError, match="at most 64 rounds"):
        net.round_times_table(ring, np.ones((65, 2), bool), np.ones((65, 2), int))


KINDS = ("comm", "fault", "compute")


@given(
    seed=st.integers(0, 10**6),
    nrounds=st.integers(1, 12),
    nkinds=st.integers(1, 3),
    subset=st.booleans(),
    columns=st.booleans(),
    hooked=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_replay_is_advance_and_sync_per_round(seed, nrounds, nkinds, subset, columns, hooked):
    """From uneven start clocks, with 1-3 charge kinds, participants all
    or a subset, charges over all ranks or a column subset, and with or
    without a per-round hook (without one, rounds after a barrier of every
    rank run from one common clock): the replay is one ``advance_many``
    per charge and one ``sync`` per round."""
    rng = np.random.default_rng(seed)
    nranks = 9
    ranks = rng.permutation(nranks)[: rng.integers(1, nranks + 1)] if columns else None
    width = nranks if ranks is None else ranks.size
    participants = np.sort(rng.permutation(nranks)[:5]) if subset else None
    charges = [
        (rng.random((nrounds, width)) * (rng.random((nrounds, width)) < 0.7), kind)
        for kind in KINDS[:nkinds]
    ]
    replayed, looped = SimClock(nranks), SimClock(nranks)
    start = rng.random(nranks) * 1e-3
    for clock in (replayed, looped):
        clock.advance_many(start, kind="compute")
    seen = []
    each = (lambda t: seen.append(t) or (lambda: seen.append(-t - 1))) if hooked else None
    replayed.replay(charges, participants, ranks, each=each)
    for t in range(nrounds):
        for seconds, kind in charges:
            row = seconds[t]
            if ranks is not None:
                row = np.zeros(nranks)
                row[ranks] = seconds[t]
            looped.advance_many(row, kind=kind)
        looped.sync(participants)
    for bucket in ("time", "comm_time", "compute_time", "fault_time"):
        assert getattr(replayed, bucket).tobytes() == getattr(looped, bucket).tobytes()
    assert seen == [x for t in range(nrounds) if hooked for x in (t, -t - 1)]


@pytest.mark.parametrize(
    "charges, error",
    [
        ([(np.ones((2, 3)), "comm"), (np.ones((3, 3)), "fault")], CommunicationError),
        ([(np.ones((2, 4)), "comm")], CommunicationError),
        ([(np.ones(3), "comm")], CommunicationError),
        ([(np.ones((2, 3)), "comm"), (-np.ones((2, 3)), "compute")], ValueError),
    ],
    ids=["rounds-differ", "too-wide", "not-a-matrix", "negative"],
)
def test_bad_charges_raise_before_any_clock_moves(charges, error):
    clock = SimClock(3)
    clock.advance_many(np.array([1.0, 2.0, 3.0]))
    before = [getattr(clock, b).copy() for b in ("time", "comm_time", "compute_time", "fault_time")]
    with pytest.raises(error):
        clock.replay(charges)
    after = [getattr(clock, b) for b in ("time", "comm_time", "compute_time", "fault_time")]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(before, after))


KNOBS = {
    "raw": {},
    "adaptive": {"wire": "adaptive"},
    "mild": {"faults": FaultSpec.parse("mild")},
    "messages": {"observe": "messages"},
    "full": {"wire": "adaptive", "faults": FaultSpec.parse("mild"), "observe": "full"},
}


@pytest.mark.parametrize("knobs", list(KNOBS))
def test_unsplit_ring_never_prices_messages(knobs, monkeypatch):
    """A ring the buffer cap does not split is priced as a table under
    every knob: per-message pricing is never reached."""
    comm = Communicator(row_major_mapping(GRID, Torus3D(4, 4, 2)), BLUEGENE_L, **KNOBS[knobs])
    tables = []

    def per_message(*args, **kwargs):
        raise AssertionError("a ring round reached per-message pricing")

    original = Network.round_times_table

    def table(self, *args, **kwargs):
        tables.append(args[1].shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Network, "round_times_arrays", per_message)
    monkeypatch.setattr(Network, "round_times_table", table)
    rng = np.random.default_rng(3)
    comm.begin_level(0)
    csizes = rng.integers(0, 20, GRID.size * GRID.cols)
    flat, bounds, _ = get_fold("union-ring").fold(
        comm, [list(range(r * GRID.cols, (r + 1) * GRID.cols)) for r in range(GRID.rows)],
        csizes, rng.integers(0, 4000, int(csizes.sum())),
    )
    assert tables == [(GRID.cols - 1, GRID.size)]
    assert bounds[-1] == flat.size > 0


def test_long_ring_is_priced_in_slabs():
    """A 1 x 130 ring (129 rounds) is priced in slabs of at most 64 rounds:
    its clocks equal pricing every round alone, and pricing holds O(64 P)
    bytes beside the size table, not O(R P)."""
    grid = GridShape(1, 130)
    mapping = row_major_mapping(grid, bluegene_l_torus_for(grid.size))
    comm, alone = Communicator(mapping, BLUEGENE_L), Communicator(mapping, BLUEGENE_L)
    rng = np.random.default_rng(1)
    src = np.arange(grid.size)
    dst = (src + 1) % grid.size
    population = comm.network.prepare_pairs(src, dst)
    active = rng.random((grid.size - 1, grid.size)) < 0.9
    sizes = rng.integers(1, 50, active.shape) * active
    stops = np.cumsum(sizes).reshape(sizes.shape)
    starts = stops - sizes
    flat = np.zeros(int(stops[-1, -1]), dtype=np.int64)
    slabs = []
    original = Network.round_times_table

    def table(self, *args, **kwargs):
        slabs.append(args[1].shape[0])
        return original(self, *args, **kwargs)

    Network.round_times_table = table
    try:
        tracemalloc.start()
        comm.exchange_arrays(src, dst, flat, starts, stops, "fold", population=population)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    finally:
        Network.round_times_table = original
    assert slabs == [64, 64, 1]
    for t in range(active.shape[0]):
        idx = np.flatnonzero(active[t])
        alone.exchange_arrays(
            src[idx], dst[idx], flat, starts[t, idx], stops[t, idx], "fold",
            population=population, pop_idx=idx,
        )
    for bucket in ("time", "comm_time", "compute_time", "fault_time"):
        assert getattr(comm.clock, bucket).tobytes() == getattr(alone.clock, bucket).tobytes()
    # the size table and its flags, plus a few 64-round float slabs
    slab = 64 * grid.size * 8
    assert peak <= 2 * sizes.nbytes + active.nbytes + 8 * slab
    assert peak < 2 * sizes.nbytes + active.nbytes + 3 * sizes.size * 8


@given(n=st.integers(0, 300), parts=st.integers(1, 40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_part_of_is_the_offsets_search(n, parts, data):
    """The arithmetic block lookup is ``searchsorted`` over the offsets —
    n < parts, n % parts == 0 and n = 0 included — and keeps its range check."""
    dist = BlockDistribution(n, parts)
    items = np.arange(n, dtype=np.int64)
    want = np.searchsorted(dist.offsets, items, side="right") - 1
    assert dist.part_of(items).tolist() == want.tolist()
    if n:
        bad = data.draw(st.sampled_from([-1, n]))
        with pytest.raises(Exception, match="out of range"):
            dist.part_of(np.array([bad]))


@pytest.mark.parametrize("n, parts", [(3, 8), (16, 4), (0, 5)])
def test_part_of_named_edges(n, parts):
    dist = BlockDistribution(n, parts)
    items = np.arange(n)
    assert dist.part_of(items).tolist() == (
        np.searchsorted(dist.offsets, items, side="right") - 1
    ).tolist()


def test_bidirectional_search_partitions_once(monkeypatch):
    """Both directions of ``api.bidirectional_bfs`` share one partition."""
    builds = []
    original = api.TwoDPartition

    def counting(*args, **kwargs):
        builds.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(api, "TwoDPartition", counting)
    graph = build_graph(GraphSpec(n=2_000, k=6, seed=4))
    result = api.bidirectional_bfs(graph, (2, 2), 0, graph.n - 1)
    assert len(builds) == 1
    assert result.path_length is None or result.path_length >= 1
