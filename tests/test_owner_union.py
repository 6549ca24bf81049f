"""The owners' mark-pass union and the scratch it leaves behind.

``LevelSyncEngine._owned_union`` dedups every owner's arrivals with one
scatter into engine-held scratch (a presence mark, or a mask-word OR
accumulator for a batch), read back and cleared.  A mark left set would
silently merge one level's arrivals into the next, so after runs that
roll back and replay levels the scratch must be all clear — and the
levels must equal a fault-free run's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_engine
from repro.bfs.options import BfsOptions
from repro.session import BfsSession
from repro.types import GridShape, resolve_system
from tests.test_sparse_schedule import _ROLLBACK_HEAVY, POISSON, RMAT, _graph


def assert_scratch_clear(engine) -> None:
    assert engine._mark is None or not engine._mark.any()
    assert engine._mask_or is None or not engine._mask_or.any()


@pytest.mark.parametrize(
    "layout, grid", [("1d", GridShape(7, 1)), ("2d", GridShape(3, 4))], ids=str
)
@pytest.mark.parametrize("with_masks", [False, True])
def test_owned_union_is_a_per_owner_sorted_union(small_graph, layout, grid, with_masks):
    """Rank order, sorted within a rank, each vertex once with the OR of
    its words — what a per-owner ``np.unique`` and OR-reduce give."""
    engine = build_engine(
        small_graph, grid, system=resolve_system(f"bluegene-{layout}")
    )
    rng = np.random.default_rng(2)
    values = rng.integers(0, small_graph.n, size=3 * small_graph.n)
    masks = (
        rng.integers(1, 1 << 20, size=values.size).astype(np.uint64)
        if with_masks
        else None
    )
    flat, bounds, words = engine._owned_union(values, masks)
    assert_scratch_clear(engine)
    owner = np.array([engine.owner_rank(int(v)) for v in values])
    for r in range(engine.comm.nranks):
        mine = values[owner == r]
        assert flat[bounds[r] : bounds[r + 1]].tolist() == np.unique(mine).tolist()
        if with_masks:
            want = [
                np.bitwise_or.reduce(masks[values == v]) for v in np.unique(mine)
            ]
            assert words[bounds[r] : bounds[r + 1]].tolist() == want
    assert (words is None) == (not with_masks)


def _session(spec, grid, faults=None, opts=None) -> BfsSession:
    return BfsSession(
        _graph(spec), grid, opts=opts,
        system=resolve_system("bluegene-2d", faults=faults),
    )


def test_scratch_clear_after_batched_rollbacks():
    """The ``msbfs-2d-rollback-heavy`` schedule: rolled-back batch levels."""
    sources = [(i * 37) % POISSON.n for i in range(32)]
    faulted = _session(POISSON, (4, 4), faults=_ROLLBACK_HEAVY)
    result = faulted.bfs_many(sources)
    assert result.faults.rollbacks > 0
    assert_scratch_clear(faulted._engine)
    assert faulted._engine._mask_or is not None
    clean = _session(POISSON, (4, 4)).bfs_many(sources)
    assert np.array_equal(result.levels, clean.levels)


def test_scratch_clear_after_crash_replays():
    """The ``poisson-2d-crash-spare`` schedule: replayed single-source levels."""
    faulted = _session(POISSON, (4, 4), faults="crash-spare")
    result = faulted.bfs(0)
    assert result.faults.replayed_levels > 0
    assert_scratch_clear(faulted._engine)
    assert faulted._engine._mark is not None
    clean = _session(POISSON, (4, 4)).bfs(0)
    assert np.array_equal(result.levels, clean.levels)


def test_scratch_clear_after_hybrid_levels():
    """Hybrid R-MAT: bottom-up levels dedup their finds through the same pass."""
    hybrid = _session(RMAT, (4, 4), opts=BfsOptions(direction="hybrid"))
    result = hybrid.bfs(0)
    assert any(level.direction == "bottom-up" for level in result.stats.levels)
    assert_scratch_clear(hybrid._engine)
    clean = _session(RMAT, (4, 4)).bfs(0)
    assert np.array_equal(result.levels, clean.levels)
