"""Several rounds in one call are bit for bit those rounds one at a time.

``Network.round_times_arrays`` and ``Communicator.exchange_arrays`` take
the rounds of a call as CSR bounds over its transfers.  Nothing about a
round may depend on whether it was priced alone or stacked with others:
the per-rank times, the per-transfer seconds, every clock bucket, the
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


@pytest.mark.parametrize("kind", ["row-major", "shuffled"])
@given(
    seed=st.integers(0, 10**6),
    nrounds=st.integers(1, 70),
    npairs=st.integers(1, 60),
    faulted=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_population_pricing_is_per_round_pricing(kind, seed, nrounds, npairs, faulted):
    """Stacked population pricing = per-round population pricing = the
    generic per-round analysis, for any pair set and any occupancy."""
    rng = np.random.default_rng(seed)
    net = Network(mapping(kind), BLUEGENE_L)
    keys = rng.choice(GRID.size * (GRID.size - 1), npairs, replace=False)
    src, col = np.divmod(keys, GRID.size - 1)
    pairs = np.column_stack((src, col + (col >= src)))
    population = net.prepare_pairs(pairs[:, 0].copy(), pairs[:, 1].copy())
    idx, bounds = stack(random_rounds(rng, pairs, nrounds, repeats=False))
    src, dst = pairs[idx, 0], pairs[idx, 1]
    nbytes = rng.integers(1, 5000, idx.size)
    mult = rng.choice([1.0, 2.0, 3.5], idx.size) if faulted else None
    stacked = net.round_times_arrays(
        src, dst, nbytes, mult, population=population, pop_idx=idx, rounds=bounds
    )
    cut = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    part = [None if mult is None else mult[c] for c in cut]
    assert_rows_equal(stacked, [
        net.round_times_arrays(
            src[c], dst[c], nbytes[c], m, population=population, pop_idx=idx[c]
        )
        for c, m in zip(cut, part)
    ], bounds)
    assert_rows_equal(stacked, [
        net.round_times_arrays(src[c], dst[c], nbytes[c], m) for c, m in zip(cut, part)
    ], bounds)


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
@given(seed=st.integers(0, 10**6), masks=st.booleans())
@settings(max_examples=4, deadline=None)
def test_stacked_exchange_is_one_exchange_per_round(kind, faults, wire, capacity, seed, masks):
    """Under every knob — codec, drops, degraded links, crashes, buffer
    splits, a mask column, spans and the trace — one call carrying R
    rounds is R calls: same chunks delivered, clocks, statistics, fault
    report, crashes, trace and exchange spans, plus one ``round t`` span
    per round."""
    rng = np.random.default_rng(seed)
    knobs = dict(
        wire=wire, faults=FAULTS[faults], buffer_capacity=capacity, observe="full"
    )
    stacked, single = comm_for(kind, **knobs), comm_for(kind, **knobs)
    pairs = np.array([(s, d) for s in range(GRID.size) for d in range(GRID.size) if s != d])
    pairs = pairs[rng.choice(pairs.shape[0], 50, replace=False)]
    population = stacked.network.prepare_pairs(pairs[:, 0].copy(), pairs[:, 1].copy())
    idx, bounds = stack(random_rounds(rng, pairs, int(rng.integers(1, 9)), repeats=False))
    src, dst = pairs[idx, 0], pairs[idx, 1]
    sizes = rng.integers(1, 30, idx.size)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.concatenate(
        [np.sort(rng.choice(500, n, replace=False)) for n in sizes] + [np.empty(0, int)]
    )
    words = np.arange(flat.size, dtype=np.uint64) if masks else None
    for comm in (stacked, single):
        comm.begin_level(0)
    got = stacked.exchange_arrays(
        src, dst, flat, offsets[:-1], offsets[1:], "fold",
        population=population, pop_idx=idx, masks=words, rounds=bounds,
    )
    step = capacity or flat.size or 1

    def chunks(arrived, lo, hi):
        """The arrived chunks as (message, start, stop), all of them for None."""
        if arrived is None:
            return [
                (m, a, min(a + step, offsets[m + 1]))
                for m in range(lo, hi)
                for a in range(offsets[m], offsets[m + 1], step)
            ]
        return [(m + lo, a, b) for m, a, b in zip(*(col.tolist() for col in arrived))]

    want = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = single.exchange_arrays(
            src[lo:hi], dst[lo:hi], flat, offsets[lo:hi], offsets[lo + 1 : hi + 1], "fold",
            population=population, pop_idx=idx[lo:hi], masks=words,
        )
        want += chunks(part, lo, hi)
    assert chunks(got, 0, idx.size) == want
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
    assert [s.name for s in rounds] == [f"round {t}" for t in range(bounds.size - 1)]
    assert single.obs.by_cat("round") == []
