"""Tests for rank-crash fault tolerance: buddy checkpointing, spare/shrink
failover, level replay, chaos verification, and cross-backend determinism."""

from __future__ import annotations

import numpy as np
import pytest

import repro.faults
import repro.faults.crash
import repro.faults.report
import repro.faults.schedule
import repro.faults.spec
from repro.api import bidirectional_bfs, distributed_bfs
from repro.backends.spmd import spmd_bfs
from repro.bfs.level_sync import run_level
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import CommunicationError, ConfigurationError, FaultError
from repro.faults import FAULT_PRESETS, FaultReport, FaultSpec
from repro.faults.chaos import run_chaos, sample_chaos_spec
from repro.faults.crash import CrashEvent
from repro.faults.validate import validate_run
from repro.graph.generators import poisson_random_graph
from repro.machine.bluegene import BLUEGENE_L
from repro.machine.cluster import flat_network_for
from repro.observability.digest import result_digests
from repro.observability.metrics import MetricsRegistry
from repro.runtime.comm import Communicator
from repro.types import GraphSpec, GridShape

#: seeds probed once against the fixture graph: seed 0 fires exactly one
#: crash on a (2,2) grid; seed 7 fires three (exhausting two spares);
#: seeds 6 and 8 kill a buddy pair together (unrecoverable).
_SPARE = FaultSpec(seed=0, crash_rate=0.35, recovery="spare", spare_ranks=2)
_SHRINK = FaultSpec(seed=0, crash_rate=0.35, recovery="shrink")


class TestCrashRecovery:
    def test_spare_failover_preserves_levels(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        report = result.faults
        assert report.crashes == 1
        assert report.spare_failovers == 1
        assert report.shrink_failovers == 0
        assert report.replayed_levels == 1
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_shrink_failover_preserves_levels(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SHRINK)
        report = result.faults
        assert report.crashes == 1
        assert report.shrink_failovers == 1
        assert report.spare_failovers == 0
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_spare_exhaustion_falls_back_to_shrink(self, small_graph):
        spec = FaultSpec(seed=7, crash_rate=0.35, recovery="spare", spare_ranks=2)
        result = distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        report = result.faults
        assert report.crashes == 3
        assert report.spare_failovers == 2  # both spares consumed...
        assert report.shrink_failovers == 1  # ...then shrink takes over
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_crash_recovery_1d_layout(self, small_graph):
        result = distributed_bfs(
            small_graph, (4, 1), 0, system="bluegene-1d", faults=_SPARE
        )
        assert result.faults.crashes == 1
        assert result.faults.failovers == 1
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_crash_recovery_bidirectional(self, small_graph):
        result = bidirectional_bfs(small_graph, (2, 2), 0, 399, faults=_SPARE)
        assert result.faults.crashes >= 1
        assert result.faults.failovers == result.faults.crashes
        assert result.path_length == int(serial_bfs(small_graph, 0)[399])

    def test_collective_faults_crash_during_reduction(self, small_graph):
        spec = FaultSpec(
            seed=0, crash_rate=0.5, collective_faults=True, spare_ranks=2
        )
        result = distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        assert result.faults.crashes >= 1
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_buddy_pair_crash_is_unrecoverable_but_loud(self, small_graph):
        # Every rank crashes at level 0: each buddy dies with its partner,
        # taking the checkpoint with it.  That must fail loudly, with the
        # structured report attached to the error.
        spec = FaultSpec(crash_rate=1.0, crash_max_level=0)
        with pytest.raises(FaultError) as excinfo:
            distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        assert isinstance(excinfo.value.report, FaultReport)
        assert excinfo.value.report.crashes > 0

    def test_checkpointing_charged_even_without_crashes(self, small_graph):
        # seed 1 samples no crash, but crash_rate > 0 keeps buddy
        # replication on — its traffic must still be accounted.
        spec = FaultSpec(seed=1, crash_rate=0.35)
        result = distributed_bfs(small_graph, (2, 2), 0, faults=spec)
        assert result.faults.crashes == 0
        assert result.faults.checkpoint_bytes > 0
        assert result.faults.overhead_seconds > 0.0

    def test_crashed_run_is_deterministic(self, small_graph):
        a = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        b = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        assert a.faults == b.faults
        assert a.elapsed == b.elapsed
        assert np.array_equal(a.levels, b.levels)

    def test_recovery_visible_as_spans(self, small_graph):
        result = distributed_bfs(
            small_graph, (2, 2), 0, faults=_SPARE, observe="spans"
        )
        names = {s.name for s in result.observability.spans}
        assert {"checkpoint", "crash-detect", "failover", "crash-recovery",
                "replay"} <= names
        # the simulated cost of recovery lands in the fault bucket
        assert sum(s.fault_seconds for s in result.stats.levels) > 0.0

    def test_crash_presets_run(self, small_graph):
        for name in ("crash-spare", "crash-shrink", "crash-harsh"):
            result = distributed_bfs(
                small_graph, (2, 2), 0, faults=FAULT_PRESETS[name]
            )
            assert result.faults.checkpoint_bytes > 0
            assert np.array_equal(result.levels, serial_bfs(small_graph, 0))


class _ScriptedBody:
    """A :func:`run_level` body whose attempts fail as scripted.

    ``"loss"`` flags the level failed (an unrecovered chunk), ``"crash"``
    queues a rank crash, ``"ok"`` does neither; every protocol call is
    logged with the body's state counter at the time.
    """

    def __init__(self, comm: Communicator, script: list[str]) -> None:
        self.comm = comm
        self.script = list(script)
        self.state = 0
        self.log: list = []

    def _attempt(self):
        outcome = self.script.pop(0)
        self.state += 1
        self.log.append(("attempt", outcome))
        if outcome == "loss":
            self.comm._level_failed = True
        elif outcome == "crash":
            self.comm._crash_pending.append(CrashEvent(1, 3, "exchange"))
        bounds = np.zeros(self.comm.nranks + 1, dtype=np.int64)
        bounds[3:] = 2  # rank 2 labelled two vertices
        return np.array([5, 9]), bounds

    def _checkpoint(self):
        self.log.append(("checkpoint", self.state))
        return self.state

    def _restore(self, snapshot) -> None:
        self.log.append(("restore", snapshot))
        self.state = snapshot

    def _checkpoint_nbytes(self) -> np.ndarray:
        self.log.append("nbytes")
        return np.full(self.comm.nranks, 64, dtype=np.int64)


@pytest.mark.parametrize("prefix", ["", "batch "])
def test_run_level_sequencing(prefix):
    """The one level loop, driven bare: both callers' prefixes, one protocol."""
    spec = FaultSpec(
        seed=0, drop_rate=0.01, crash_rate=1e-9, recovery="shrink",
        max_level_retries=2,
    )

    def fresh(script):
        comm = Communicator(flat_network_for(GridShape(1, 4)), BLUEGENE_L, faults=spec)
        return comm, _ScriptedBody(comm, script)

    # a loss rolls back, a crash replays, the third attempt stands
    comm, body = fresh(["loss", "crash", "ok"])
    frontier, total_new, rollbacks, replays = run_level(
        comm, BfsOptions(), 3, body, prefix=prefix
    )
    assert frontier[0].tolist() == [5, 9]
    assert (total_new, rollbacks, replays) == (2, 1, 1)
    assert body.log == [
        "nbytes",  # buddy replication at level entry
        ("checkpoint", 0), ("attempt", "loss"), ("restore", 0),
        ("checkpoint", 0), ("attempt", "crash"), ("restore", 0),
        "nbytes",  # the failover streams the restored checkpoint
        ("checkpoint", 0), ("attempt", "ok"),
    ]
    assert [(row.level, row.frontier_size) for row in comm.stats.levels] == [(3, 2)]
    assert comm.stats.total_rollbacks == 2
    report = comm.fault_report()
    assert (report.rollbacks, report.replayed_levels) == (1, 1)
    assert report.shrink_failovers == 1 and report.checkpoint_bytes == 4 * 64

    # the retry budget is per level, and spent loudly
    comm, body = fresh(["loss"] * 5)
    with pytest.raises(FaultError) as excinfo:
        run_level(comm, BfsOptions(), 3, body, prefix=prefix)
    assert str(excinfo.value) == f"{prefix}level 3 still failing after 2 rollbacks"
    assert excinfo.value.report.rollbacks == 2
    assert [entry for entry in body.log if entry[0] == "attempt"] == [
        ("attempt", "loss")
    ] * 3

    # without checkpoints the first failure is final
    comm, body = fresh(["crash", "ok"])
    with pytest.raises(FaultError) as excinfo:
        run_level(comm, BfsOptions(checkpoint=False), 3, body, prefix=prefix)
    assert str(excinfo.value) == (
        f"{prefix}state lost at level 3 and checkpointing is disabled "
        "(BfsOptions.checkpoint=False)"
    )
    assert body.log == [("attempt", "crash")]


class TestCrossBackendDeterminism:
    """Satellite: same seed + schedule => identical FaultReport counters and
    levels on the simulator and the real-parallel SPMD backend."""

    #: the simulator's expand dest-filters prune sends the SPMD backend
    #: makes, changing which transmissions exist to be dropped — parity
    #: holds for the unfiltered message set.
    _OPTS = BfsOptions(use_expand_filter=False)

    _COUNTERS = (
        "injected", "retries", "recovered", "unrecovered", "rollbacks",
        "degraded_links", "straggler_ranks", "link_down",
    )

    def _assert_parity(self, graph, grid, spec):
        sim = distributed_bfs(graph, grid, 0, opts=self._OPTS, faults=spec)
        levels, report = spmd_bfs(
            graph, grid, 0, opts=self._OPTS, faults=spec,
            return_report=True, timeout=60,
        )
        assert np.array_equal(sim.levels, levels)
        for name in self._COUNTERS:
            assert getattr(sim.faults, name) == getattr(report, name), name

    def test_harsh_preset_matches(self, small_graph):
        self._assert_parity(small_graph, (2, 2), FaultSpec.parse("harsh"))

    def test_heavy_drops_with_rollbacks_match(self, small_graph):
        spec = FaultSpec(seed=0, drop_rate=0.18, max_retries=1)
        sim = distributed_bfs(small_graph, (2, 2), 0, opts=self._OPTS, faults=spec)
        assert sim.faults.rollbacks > 0  # the hard case: replayed levels
        self._assert_parity(small_graph, (2, 2), spec)

    def test_multi_round_ring_grid_matches(self, small_graph):
        # (2,4) rings take several rounds per phase, so ring and direct
        # schedules genuinely diverge — parity must still hold.
        self._assert_parity(
            small_graph, (2, 4), FaultSpec(seed=1, drop_rate=0.18, max_retries=1)
        )

    def test_spmd_rejects_crashes(self, small_graph):
        with pytest.raises(CommunicationError, match="crash"):
            spmd_bfs(small_graph, (2, 2), 0, faults=FaultSpec(crash_rate=0.1))


class TestPackageSplit:
    """Satellite: repro/faults is a package; the old import paths survive."""

    def test_submodule_objects_are_the_package_exports(self):
        assert repro.faults.spec.FaultSpec is repro.faults.FaultSpec
        assert repro.faults.spec.FAULT_PRESETS is repro.faults.FAULT_PRESETS
        assert repro.faults.report.FaultReport is repro.faults.FaultReport
        assert repro.faults.schedule.FaultSchedule is repro.faults.FaultSchedule

    def test_legacy_flat_import_path(self):
        # pre-split code did `from repro.faults import FaultSpec, ...`
        from repro.faults import FaultReport, FaultSchedule, FaultSpec  # noqa: F401

    def test_parse_error_lists_every_preset(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FaultSpec.parse("not-a-preset")
        message = str(excinfo.value)
        for preset in FAULT_PRESETS:
            assert preset in message

    def test_parse_error_names_offending_key(self):
        with pytest.raises(ConfigurationError, match="dropp"):
            FaultSpec.parse("dropp=0.1")

    def test_parse_error_names_offending_value(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FaultSpec.parse("drop=banana")
        assert "banana" in str(excinfo.value)
        assert "drop" in str(excinfo.value)

    def test_parse_crash_keys(self):
        spec = FaultSpec.parse(
            "crash=0.2,crash_level=3,recovery=shrink,spares=0,collective=1"
        )
        assert spec.crash_rate == 0.2
        assert spec.crash_max_level == 3
        assert spec.recovery == "shrink"
        assert spec.spare_ranks == 0
        assert spec.collective_faults is True


class TestObservabilityParity:
    """Satellite: crash counters flow into digests, metrics, and exports
    without perturbing fault-free digests."""

    def test_fault_free_digests_have_no_fault_component(self, small_graph):
        digests = result_digests(distributed_bfs(small_graph, (2, 2), 0))
        assert "faults" not in digests

    def test_faulted_digests_gain_a_fault_component(self, small_graph):
        digests = result_digests(
            distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        )
        assert "faults" in digests

    def test_fault_digest_tracks_crash_counters(self, small_graph):
        spare = result_digests(distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE))
        shrink = result_digests(distributed_bfs(small_graph, (2, 2), 0, faults=_SHRINK))
        assert spare["faults"] != shrink["faults"]
        assert spare["levels"] == shrink["levels"]

    def test_metrics_registry_carries_crash_counters(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        reg = MetricsRegistry.from_result(result)
        assert reg.value("bfs_fault_crashes_total") == result.faults.crashes
        assert reg.value("bfs_fault_failovers_total", mode="spare") == (
            result.faults.spare_failovers
        )
        assert reg.value("bfs_fault_failovers_total", mode="shrink") == (
            result.faults.shrink_failovers
        )
        assert reg.value("bfs_fault_replayed_levels_total") == (
            result.faults.replayed_levels
        )
        assert reg.value("bfs_fault_checkpoint_bytes_total") == (
            result.faults.checkpoint_bytes
        )

    def test_export_rows_carry_crash_columns(self):
        from repro.harness.runner import Run, execute
        from repro.types import GridShape, SystemSpec

        run = Run(
            "crashy", GraphSpec(n=400, k=8.0, seed=11), GridShape(2, 2),
            system=SystemSpec(faults=_SPARE),
        )
        row = execute(run).row()
        assert row["crashes"] == 1
        assert row["failovers"] == 1
        assert row["replayed_levels"] == 1
        assert row["checkpoint_bytes"] > 0
        assert row["faults"] == "custom"

    def test_fault_sweep_table_has_crash_columns(self, small_graph):
        from repro.harness.fault_sweep import fault_sweep, format_fault_sweep

        points = fault_sweep(small_graph, (2, 2), 0, [_SPARE])
        table = format_fault_sweep(points)
        for column in ("crash", "crashes", "failovers", "replays"):
            assert column in table
        assert "NO" not in table  # levels matched


class TestValidation:
    def test_validate_clean_faulted_run(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        assert validate_run(small_graph, 0, result) == []

    def test_validate_flags_wrong_levels(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SPARE)
        result.levels[5] += 1
        problems = validate_run(small_graph, 0, result)
        assert problems
        assert any("level" in p for p in problems)

    def test_validate_against_explicit_baseline(self, small_graph):
        baseline = distributed_bfs(small_graph, (2, 2), 0)
        result = distributed_bfs(small_graph, (2, 2), 0, faults=_SHRINK)
        assert validate_run(
            small_graph, 0, result, baseline_levels=baseline.levels
        ) == []


class TestChaosHarness:
    def test_sampler_is_deterministic(self):
        assert sample_chaos_spec(42) == sample_chaos_spec(42)
        specs = {sample_chaos_spec(seed) for seed in range(20)}
        assert len(specs) > 1  # distinct seeds explore the space

    def test_hundred_seeded_schedules_all_verify(self):
        # The acceptance bar: >= 100 seeded schedules, every recoverable
        # run byte-identical to fault-free, every unrecoverable one loud.
        graph = poisson_random_graph(GraphSpec(n=120, k=6.0, seed=11))
        report = run_chaos(graph, (2, 2), 0, range(100))
        counts = report.counts
        assert counts["ok"] + counts["unrecoverable"] == 100
        assert counts["invalid"] == 0
        assert report.ok
        assert counts["ok"] >= 50  # most schedules must actually recover

    def test_chaos_report_round_trips(self):
        graph = poisson_random_graph(GraphSpec(n=120, k=6.0, seed=11))
        report = run_chaos(graph, (2, 2), 0, range(5))
        payload = report.to_dict()
        assert payload["counts"] == report.counts
        assert len(payload["cases"]) == 5
        assert "ok" in report.summary()
