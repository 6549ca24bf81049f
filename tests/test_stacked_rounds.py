"""Several rounds in one call are bit for bit those rounds one at a time.

A ring's rounds reach ``Communicator.exchange_arrays`` as a ``(round,
pair)`` table and are priced by ``Network.round_times_table``; split
chunks reach ``Network.round_times_arrays`` as CSR bounds over their
transfers.  Nothing about a round may depend on whether it was priced
alone or stacked with others: the per-rank times, every clock bucket, the
statistics, the fault fates, the trace and the exchange spans must equal
what the same rounds give one call at a time — and, for a prepared pair
population, what the generic per-round analysis gives.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.mapping import TaskMapping, row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.comm import Communicator
from repro.runtime.network import Network
from repro.types import GridShape

GRID = GridShape(4, 8)
TORUS = Torus3D(4, 4, 2)


def mapping(kind: str) -> TaskMapping:
    if kind == "row-major":
        return row_major_mapping(GRID, TORUS)
    # a shuffled placement: long, crossing routes
    return TaskMapping(GRID, TORUS, np.random.default_rng(5).permutation(GRID.size))


def random_rounds(rng, pairs: np.ndarray, nrounds: int, repeats: bool):
    """Per round, a random subset of ``pairs`` (row indices) in random
    order — empty and full rounds among them; ``repeats`` lets a pair
    recur within a round, as the chunks of a split message do."""
    rounds = []
    for _ in range(nrounds):
        share = rng.choice([0.0, 0.3, 0.8, 1.0])
        picked = np.flatnonzero(rng.random(pairs.shape[0]) < share)
        if repeats and picked.size:
            picked = np.concatenate((picked, rng.choice(picked, rng.integers(0, 6))))
        rounds.append(rng.permutation(picked))
    return rounds


def stack(rounds):
    idx = np.concatenate(rounds).astype(np.int64)
    bounds = np.concatenate(([0], np.cumsum([r.size for r in rounds])))
    return idx, bounds


def assert_rows_equal(stacked, singles, bounds):
    send, recv, seconds = stacked
    assert send.shape == recv.shape == (bounds.size - 1, GRID.size)
    for t, (s, r, sec) in enumerate(singles):
        assert send[t].tobytes() == s.tobytes()
        assert recv[t].tobytes() == r.tobytes()
        assert seconds[bounds[t] : bounds[t + 1]].tobytes() == sec.tobytes()


def ring_pairs(rng, nrings: int) -> tuple[np.ndarray, np.ndarray]:
    """``nrings`` disjoint rings of 2 to 6 random ranks: each member sends
    to its successor, so every destination is one pair's source."""
    sizes = rng.integers(2, 7, nrings)
    while sizes.sum() > GRID.size:
        sizes = sizes[:-1]
    members = rng.permutation(GRID.size)[: sizes.sum()]
    ring = np.repeat(np.arange(sizes.size), sizes)
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    within = np.arange(members.size) - first[ring]
    succ = first[ring] + (within + 1) % sizes[ring]
    return members, members[succ]


def random_table(rng, npairs: int, nrounds: int) -> np.ndarray:
    """Per round, a random subset of the pairs in flight — empty and full
    rounds among them."""
    share = rng.choice([0.0, 0.3, 0.8, 1.0], (nrounds, 1))
    return rng.random((nrounds, npairs)) < share


@pytest.mark.parametrize("kind", ["row-major", "shuffled"])
@given(
    seed=st.integers(0, 10**6),
    nrounds=st.integers(1, 64),
    nrings=st.integers(1, 8),
    faulted=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_population_pricing_is_per_round_pricing(kind, seed, nrounds, nrings, faulted):
    """Table pricing of a ring population = per-round population pricing
    = the generic per-round analysis, for any rings and any occupancy."""
    rng = np.random.default_rng(seed)
    net = Network(mapping(kind), BLUEGENE_L)
    src, dst = ring_pairs(rng, nrings)
    population = net.prepare_pairs(src, dst)
    population.ring_pred(src, dst)
    active = random_table(rng, src.size, nrounds)
    nbytes = rng.integers(1, 5000, active.shape) * active
    mult = rng.choice([1.0, 2.0, 3.5], active.shape) if faulted else None
    send, base = net.round_times_table(population, active, nbytes, mult)
    for t in range(nrounds):
        idx = np.flatnonzero(active[t])
        m = None if mult is None else mult[t, idx]
        for kwargs in ({"population": population, "pop_idx": idx}, {}):
            want_send, want_recv, _ = net.round_times_arrays(
                src[idx], dst[idx], nbytes[t, idx], m, **kwargs
            )
            assert send[t].tobytes() == want_send[src].tobytes()
            assert base[t].tobytes() == np.maximum(want_send, want_recv)[src].tobytes()


@pytest.mark.parametrize("kind", ["row-major", "shuffled"])
@given(seed=st.integers(0, 10**6), nrounds=st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_generic_pricing_is_per_round_pricing(kind, seed, nrounds):
    """Without a population (split chunks repeat pairs, self-sends are
    free) every round keeps its own load analysis."""
    rng = np.random.default_rng(seed)
    net = Network(mapping(kind), BLUEGENE_L)
    pairs = rng.integers(0, GRID.size, (40, 2))  # self-sends among them
    idx, bounds = stack(random_rounds(rng, pairs, nrounds, repeats=True))
    src, dst = pairs[idx, 0], pairs[idx, 1]
    nbytes = rng.integers(1, 5000, idx.size)
    stacked = net.round_times_arrays(src, dst, nbytes, rounds=bounds)
    cut = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert_rows_equal(
        stacked, [net.round_times_arrays(src[c], dst[c], nbytes[c]) for c in cut], bounds
    )


def comm_for(kind: str, **knobs) -> Communicator:
    return Communicator(mapping(kind), BLUEGENE_L, **knobs)


FAULTS = {
    None: None,
    "drops": FaultSpec(seed=3, drop_rate=0.2, max_retries=2),
    "mild": FaultSpec.parse("mild"),
    "crash": FaultSpec(seed=1, crash_rate=0.2, crash_max_level=0, drop_rate=0.05),
}


@pytest.mark.parametrize("kind", ["row-major", "shuffled"])
@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("wire", ["raw", "adaptive"])
@pytest.mark.parametrize("capacity", [None, 5])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=4, deadline=None)
def test_stacked_exchange_is_one_exchange_per_round(kind, faults, wire, capacity, seed):
    """Under every knob — codec, drops, degraded links, crashes, buffer
    splits, spans and the trace — one call carrying a ring's R rounds as
    a table is R calls of message rows: same chunks delivered, clocks,
    statistics, fault report, crashes, trace and exchange spans, plus one
    ``round t`` span per round."""
    rng = np.random.default_rng(seed)
    knobs = dict(
        wire=wire, faults=FAULTS[faults], buffer_capacity=capacity, observe="full"
    )
    stacked, single = comm_for(kind, **knobs), comm_for(kind, **knobs)
    src, dst = ring_pairs(rng, 6)
    population = stacked.network.prepare_pairs(src, dst)
    active = random_table(rng, src.size, int(rng.integers(1, 9)))
    sizes = rng.integers(1, 30, active.shape) * active
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    starts = offsets[:-1].reshape(sizes.shape)
    flat = np.concatenate(
        [np.sort(rng.choice(500, n, replace=False)) for n in sizes.ravel()]
        + [np.empty(0, int)]
    )
    for comm in (stacked, single):
        comm.begin_level(0)
    got = stacked.exchange_arrays(
        src, dst, flat, starts, starts + sizes, "fold", population=population
    )
    step = capacity or flat.size or 1
    cells = np.flatnonzero(active)

    def chunks(arrived, msgs):
        """The arrived chunks as (cell, start, stop), all of them for None."""
        if arrived is None:
            return [
                (c, a, min(a + step, offsets[c + 1]))
                for c in msgs
                for a in range(offsets[c], offsets[c + 1], step)
            ]
        return [(msgs[m], a, b) for m, a, b in zip(*(col.tolist() for col in arrived))]

    want = []
    for t in range(active.shape[0]):
        idx = np.flatnonzero(active[t])
        cell = t * src.size + idx
        part = single.exchange_arrays(
            src[idx], dst[idx], flat, offsets[cell], offsets[cell + 1], "fold",
            population=population, pop_idx=idx,
        )
        want += chunks(part, cell)
    got = chunks(got, np.arange(active.size)) if got is not None else chunks(None, cells)
    assert got == want
    for bucket in ("time", "comm_time", "compute_time", "fault_time"):
        a, b = getattr(stacked.clock, bucket), getattr(single.clock, bucket)
        assert a.tobytes() == b.tobytes(), bucket
    assert stacked.stats.end_level(0) == single.stats.end_level(0)
    assert stacked.fault_report() == single.fault_report()
    assert stacked.consume_level_failure() == single.consume_level_failure()
    assert stacked.consume_crashes() == single.consume_crashes()
    assert stacked.obs_trace.events == single.obs_trace.events

    def exchanges(comm):
        return [
            (s.sim_begin, s.sim_end, s.args)
            for s in comm.obs.spans
            if s.cat in ("exchange", "phase")
        ]

    assert exchanges(stacked) == exchanges(single)
    rounds = stacked.obs.by_cat("round")
    assert [s.name for s in rounds] == [f"round {t}" for t in range(active.shape[0])]
    assert single.obs.by_cat("round") == []
