"""Crash-recoverable MS-BFS: faulted batches must answer fault-free.

The serving path's invariant, held to byte-identity: a batched traversal
under any *recoverable* fault schedule — transient wire drops, rank
crashes with spare or shrink recovery, the harsh mixed preset — returns
per-source level rows exactly equal to fault-free sequential
:func:`~repro.bfs.level_sync.run_bfs` answers, on both layouts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.msbfs import _MsBfsRun
from repro.bfs.options import BfsOptions
from repro.collectives.base import FoldCollective
from repro.errors import FaultError
from repro.faults import FaultSpec
from repro.faults.validate import validate_run
from repro.runtime.comm import Communicator
from repro.session import BfsSession
from repro.types import GridShape, SystemSpec

LAYOUTS = [("2d", GridShape(4, 4)), ("1d", GridShape(1, 8))]

SOURCES = [0, 1, 5, 17, 113, 399, 200, 3]

#: recoverable schedules: light drops (the acceptance spec), heavy drops
#: forcing many rollbacks, crash recovery via spare and shrink, the works
SPECS = {
    "drop-light": FaultSpec(seed=0, drop_rate=0.02),
    "drop-heavy": FaultSpec(seed=0, drop_rate=0.3, max_retries=3),
    "crash-spare": "crash-spare",
    "crash-shrink": "crash-shrink",
    "crash-harsh": "crash-harsh",
}


def _sessions(graph, layout, grid, faults):
    faulted = BfsSession(
        graph, grid, system=SystemSpec(layout=layout, faults=faults)
    )
    clean = BfsSession(graph, grid, system=SystemSpec(layout=layout))
    return faulted, clean


@pytest.mark.parametrize("layout,grid", LAYOUTS)
@pytest.mark.parametrize("name", sorted(SPECS))
class TestFaultedByteIdentity:
    def test_rows_match_fault_free_sequential(
        self, small_graph, layout, grid, name
    ):
        faulted, clean = _sessions(small_graph, layout, grid, SPECS[name])
        batched = faulted.bfs_many(SOURCES)
        assert batched.faults is not None
        for i, s in enumerate(SOURCES):
            sequential = clean.bfs(s)
            assert batched.levels[i].tobytes() == sequential.levels.tobytes()
            assert int(batched.num_levels[i]) == sequential.num_levels

    def test_validate_run_accepts_batched_result(
        self, small_graph, layout, grid, name
    ):
        faulted, clean = _sessions(small_graph, layout, grid, SPECS[name])
        result = faulted.bfs_many(SOURCES)
        baseline = np.stack([clean.bfs(s).levels for s in SOURCES])
        assert validate_run(small_graph, SOURCES[0], result, baseline) == []
        # and without an explicit baseline (serial oracle per row)
        assert validate_run(small_graph, SOURCES[0], result) == []


@pytest.mark.parametrize("layout,grid", LAYOUTS)
def test_withheld_middle_chunk_keeps_masks_paired(
    small_graph, layout, grid, monkeypatch
):
    """Buffered + lossy: a message split into chunks loses a *middle* one.

    What the 2D expand merges into each rank's frontier and what the fold
    driver hands each owner — the rank's own entries plus the chunks that
    arrived — must come back with their own mask words, checked entry for
    entry against plain Python slices of what the one round sent, and the
    rows must still equal fault-free sequential runs.
    """
    rounds: list = []
    real_round = Communicator.exchange_arrays

    def spy_round(self, src, dst, flat, starts, stops, phase, **kwargs):
        arrived = real_round(self, src, dst, flat, starts, stops, phase, **kwargs)
        rounds.append((dst, flat, kwargs.get("masks"), starts, stops, arrived))
        return arrived

    middle_losses = {"expand": 0, "fold": 0}

    def arrived_entries(phase):
        """``(rank, vertex, mask)`` of every entry the one round delivered."""
        (dst, sent_v, sent_m, starts, stops, arrived), = rounds
        if arrived is None:
            chunks = list(zip(range(dst.size), starts.tolist(), stops.tolist()))
        else:
            chunks = list(zip(*(col.tolist() for col in arrived)))
            for m in set(arrived[0].tolist()):
                nchunks = -(-(int(stops[m]) - int(starts[m])) // 8)
                index = [(a - int(starts[m])) // 8 for k, a, _ in chunks if k == m]
                if index[0] == 0 and index[-1] == nchunks - 1 and len(index) < nchunks:
                    middle_losses[phase] += 1
        return [
            (int(dst[m]), v, w)
            for m, a, b in chunks
            for v, w in zip(sent_v[a:b].tolist(), sent_m[a:b].tolist())
        ]

    def triples(flat, bounds, masks):
        seg = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        return sorted(zip(seg.tolist(), flat.tolist(), masks.tolist()))

    real_expand = LevelSyncEngine._expand_step

    def checked_expand(self, fflat, fbounds, fmasks):
        del rounds[:]
        got = real_expand(self, fflat, fbounds, fmasks)
        # each rank's F-bar: its own entries united with what arrived,
        # one entry per vertex carrying the OR of its mask words
        union: dict = {}
        for r, v, w in triples(fflat, fbounds, fmasks) + arrived_entries("expand"):
            union[r, v] = union.get((r, v), 0) | w
        assert triples(*got) == sorted((r, v, w) for (r, v), w in union.items())
        return got

    real_fold = FoldCollective.fold

    def checked_fold(self, comm, groups, csizes, cflat, phase="fold", sieve=None,
                     masks=None):
        del rounds[:]
        got = real_fold(self, comm, groups, csizes, cflat, phase, sieve, masks)
        # fold segments are ranks: local hand-offs never touch the wire
        size = len(groups[0])
        slot = np.repeat(np.arange(csizes.size), csizes)
        owner = slot // size - slot // size % size + slot % size
        handed = owner == slot // size
        want = sorted(
            list(zip(owner[handed].tolist(), cflat[handed].tolist(), masks[handed].tolist()))
            + arrived_entries("fold")
        )
        assert triples(*got) == want
        return got

    monkeypatch.setattr(Communicator, "exchange_arrays", spy_round)
    monkeypatch.setattr(LevelSyncEngine, "_expand_step", checked_expand)
    monkeypatch.setattr(FoldCollective, "fold", checked_fold)
    faulted = BfsSession(
        small_graph, grid, opts=BfsOptions(buffer_capacity=8),
        system=SystemSpec(layout=layout, faults=SPECS["drop-heavy"]),
    )
    batched = faulted.bfs_many(SOURCES)
    assert middle_losses["fold"] > 0
    # 1D has no expand round
    assert (middle_losses["expand"] > 0) == (layout == "2d")
    assert batched.faults.rollbacks > 0
    monkeypatch.undo()
    clean = BfsSession(small_graph, grid, system=SystemSpec(layout=layout))
    for i, s in enumerate(SOURCES):
        assert batched.levels[i].tobytes() == clean.bfs(s).levels.tobytes()


class TestFaultedBatchBehaviour:
    def test_heavy_drops_actually_roll_back(self, small_graph):
        session = BfsSession(
            small_graph, (4, 4),
            system=SystemSpec(layout="2d", faults=SPECS["drop-heavy"]),
        )
        result = session.bfs_many(SOURCES)
        assert result.faults.rollbacks > 0
        assert result.stats.total_rollbacks == result.faults.rollbacks

    @pytest.mark.parametrize("layout,grid", LAYOUTS)
    def test_rollback_after_planes_were_written(
        self, small_graph, layout, grid, monkeypatch
    ):
        """A rollback deep in the batch restores the level planes, the
        visited words and the per-level reached list together."""
        rolled_back: list[tuple[int, int]] = []
        real_restore = _MsBfsRun._restore

        def spy_restore(self, snapshot):
            rolled_back.append((self.level, len(snapshot[0])))
            real_restore(self, snapshot)

        monkeypatch.setattr(_MsBfsRun, "_restore", spy_restore)
        faulted, clean = _sessions(small_graph, layout, grid, SPECS["drop-heavy"])
        batched = faulted.bfs_many(SOURCES)
        monkeypatch.undo()
        # level >= 2 enters with planes 0 and 1 already written
        assert any(level >= 2 and planes >= 2 for level, planes in rolled_back)
        fault_free = clean.bfs_many(SOURCES)
        assert batched.levels.tobytes() == fault_free.levels.tobytes()
        assert batched.num_levels.tolist() == fault_free.num_levels.tolist()
        for i, s in enumerate(SOURCES):
            assert int(batched.num_levels[i]) == clean.bfs(s).num_levels

    def test_crashes_actually_replay(self, small_graph):
        session = BfsSession(
            small_graph, (4, 4),
            system=SystemSpec(layout="2d", faults="crash-spare"),
        )
        result = session.bfs_many(SOURCES)
        assert result.faults.crashes > 0
        assert result.faults.failovers == result.faults.crashes
        assert result.faults.checkpoint_bytes > 0

    def test_faulted_batch_deterministic(self, small_graph):
        def run():
            session = BfsSession(
                small_graph, (4, 4),
                system=SystemSpec(layout="2d", faults=SPECS["drop-heavy"]),
            )
            r = session.bfs_many(SOURCES)
            return r.levels.tobytes(), r.elapsed, r.faults.injected

        assert run() == run()

    def test_targeted_queries_under_crashes(self, small_graph):
        faulted, clean = _sessions(
            small_graph, "2d", GridShape(4, 4), "crash-spare"
        )
        targets = [10, None, 5, 42, None, 250, 0, None]
        batched = faulted.bfs_many(SOURCES, targets=targets)
        for i, (s, t) in enumerate(zip(SOURCES, targets)):
            sequential = clean.bfs(s, target=t)
            assert np.array_equal(batched.levels[i], sequential.levels)
            assert batched.target_levels[i] == sequential.target_level

    def test_fault_seed_override_draws_new_pattern(self, small_graph):
        session = BfsSession(
            small_graph, (4, 4),
            system=SystemSpec(layout="2d", faults=SPECS["drop-heavy"]),
        )
        default = session.bfs_many(SOURCES)
        reseeded = session.bfs_many(SOURCES, fault_seed=12345)
        # different loss pattern, identical answer
        assert default.faults.injected != reseeded.faults.injected
        assert default.levels.tobytes() == reseeded.levels.tobytes()

    def test_exhausted_replay_budget_raises_structured(self, small_graph):
        session = BfsSession(
            small_graph, (4, 4),
            system=SystemSpec(
                layout="2d",
                faults=FaultSpec(
                    seed=0, drop_rate=0.9, max_retries=0, max_level_retries=2
                ),
            ),
        )
        with pytest.raises(FaultError) as excinfo:
            session.bfs_many(SOURCES)
        assert excinfo.value.report is not None
        assert excinfo.value.report.unrecovered > 0
