"""Tests for the SystemSpec value object and the shared resolver.

The redesign's contract: every entry point accepts ``system=`` (a
:class:`SystemSpec` or a preset name), the old per-axis keyword arguments
remain a compatibility path, and both roads produce *identical* runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import build_communicator, build_engine, distributed_bfs
from repro.bfs.level_sync import LevelSyncEngine
from repro.errors import ConfigurationError
from repro.faults import FaultSpec
from repro.machine.bluegene import BLUEGENE_L
from repro.session import BfsSession
from repro.types import SYSTEM_PRESETS, GridShape, SystemSpec, resolve_system


def assert_1d(engine, grid: GridShape, placement_system: str) -> None:
    """A "1d" engine: Algorithm 2 on ``1 x P``, placed as ``grid`` is."""
    assert isinstance(engine, LevelSyncEngine)
    assert engine.partition.grid == engine.comm.grid == GridShape(1, grid.size)
    placed = build_communicator(grid, system=placement_system).mapping.rank_to_node
    assert np.array_equal(engine.comm.mapping.rank_to_node, placed)


class TestSystemSpec:
    def test_defaults(self):
        spec = SystemSpec()
        assert spec.machine == "bluegene"
        assert spec.mapping == "planar"
        assert spec.layout == "2d"
        assert spec.faults is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemSpec().layout = "1d"  # type: ignore[misc]

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemSpec(machine="cray")

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemSpec(mapping="hilbert")

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemSpec(layout="3d")

    def test_bad_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemSpec(faults=3.14)  # type: ignore[arg-type]

    def test_faults_preset_string(self):
        # Regression: SystemSpec used to reject the documented preset names.
        from repro.faults import FAULT_PRESETS

        spec = SystemSpec(faults="harsh")
        assert spec.faults == FAULT_PRESETS["harsh"]
        assert SystemSpec(faults="none").faults == FAULT_PRESETS["none"]
        assert SystemSpec(faults="mild").faults == FAULT_PRESETS["mild"]

    def test_faults_keyvalue_string(self):
        spec = SystemSpec(faults="drop=0.05,seed=7")
        assert isinstance(spec.faults, FaultSpec)
        assert spec.faults.drop_rate == 0.05
        assert spec.faults.seed == 7

    def test_unknown_faults_preset_lists_names(self):
        expected = r"\['none', 'mild', 'harsh', 'crash-spare', 'crash-shrink', 'crash-harsh'\]"
        with pytest.raises(ConfigurationError, match=expected):
            SystemSpec(faults="extreme")

    def test_custom_machine_object_allowed(self):
        model = BLUEGENE_L.with_overrides(alpha=1e-5)
        assert SystemSpec(machine=model).machine is model


class TestResolveSystem:
    def test_none_is_default_spec(self):
        assert resolve_system(None) == SystemSpec()

    def test_preset_names(self):
        for name, spec in SYSTEM_PRESETS.items():
            assert resolve_system(name) == spec

    def test_explicit_spec_passes_through(self):
        spec = SystemSpec(machine="mcr", layout="1d")
        assert resolve_system(spec) is spec

    def test_legacy_kwargs_override_preset(self):
        spec = resolve_system("bluegene-2d", mapping="row-major", layout="1d")
        assert spec.mapping == "row-major"
        assert spec.layout == "1d"
        assert spec.machine == "bluegene"

    def test_faults_merge(self):
        faults = FaultSpec(drop_rate=0.01)
        assert resolve_system("mcr-2d", faults=faults).faults is faults

    def test_faults_preset_string_merge(self):
        from repro.faults import FAULT_PRESETS

        spec = resolve_system("bluegene-2d", faults="mild")
        assert spec.faults == FAULT_PRESETS["mild"]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_system("bluegene-3d")

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_system(42)  # type: ignore[arg-type]

    def test_reexported_from_package_root(self):
        assert repro.SystemSpec is SystemSpec
        assert repro.resolve_system is resolve_system
        assert repro.SYSTEM_PRESETS is SYSTEM_PRESETS
        assert repro.FaultSpec is FaultSpec


class TestEntryPoints:
    def test_build_communicator_preset(self):
        comm = build_communicator(GridShape(2, 2), system="mcr-2d")
        assert comm.model.name == "MCR"

    def test_build_engine_preset_picks_layout(self, small_graph):
        engine = build_engine(small_graph, (4, 1), system="bluegene-1d")
        assert_1d(engine, GridShape(4, 1), "bluegene-2d")
        engine = build_engine(small_graph, (2, 2), system="bluegene-2d")
        assert isinstance(engine, LevelSyncEngine)

    def test_distributed_bfs_faults_preset_string(self, small_graph):
        from repro.faults import FAULT_PRESETS

        by_name = distributed_bfs(small_graph, (2, 2), 0, faults="mild")
        by_spec = distributed_bfs(
            small_graph, (2, 2), 0, faults=FAULT_PRESETS["mild"]
        )
        assert np.array_equal(by_name.levels, by_spec.levels)
        assert by_name.elapsed == by_spec.elapsed
        assert by_name.faults is not None

    def test_spec_object_accepted(self, small_graph):
        spec = SystemSpec(machine="mcr", layout="1d")
        engine = build_engine(small_graph, (1, 4), system=spec)
        assert_1d(engine, GridShape(1, 4), "mcr-2d")
        assert engine.comm.model.name == "MCR"

    def test_layout_kwarg_overrides_spec(self, small_graph):
        engine = build_engine(
            small_graph, (4, 1), system=resolve_system("bluegene-2d", layout="1d")
        )
        assert_1d(engine, GridShape(4, 1), "bluegene-2d")

    def test_old_and_new_roads_identical(self, small_graph):
        old = distributed_bfs(
            small_graph, (2, 2), 0,
            system=resolve_system(machine="mcr", mapping="row-major", layout="2d"),
        )
        new = distributed_bfs(
            small_graph, (2, 2), 0,
            system=SystemSpec(machine="mcr", mapping="row-major", layout="2d"),
        )
        assert np.array_equal(old.levels, new.levels)
        assert old.elapsed == new.elapsed
        assert old.stats.total_messages == new.stats.total_messages

    def test_preset_equals_kwargs_road(self, small_graph):
        by_preset = distributed_bfs(small_graph, (4, 1), 0, system="bluegene-1d")
        by_kwargs = distributed_bfs(
            small_graph, (4, 1), 0, system=resolve_system(layout="1d")
        )
        assert np.array_equal(by_preset.levels, by_kwargs.levels)
        assert by_preset.elapsed == by_kwargs.elapsed

    def test_session_takes_system(self, small_graph):
        session = BfsSession(small_graph, (2, 2), system="mcr-2d")
        assert session.machine == "mcr"
        assert session.system == SystemSpec(machine="mcr")
        result = session.bfs(0)
        assert result.levels[0] == 0

    def test_session_legacy_kwargs_still_work(self, small_graph):
        session = BfsSession(
            small_graph, (4, 1), system=resolve_system(layout="1d", mapping="row-major")
        )
        assert session.layout == "1d"
        assert session.mapping == "row-major"
        old = session.bfs(1)
        new = BfsSession(
            small_graph, (4, 1), system=SystemSpec(layout="1d", mapping="row-major")
        ).bfs(1)
        assert np.array_equal(old.levels, new.levels)
        assert old.elapsed == new.elapsed

    def test_session_faults_threaded_through(self, small_graph):
        session = BfsSession(
            small_graph, (2, 2), faults=FaultSpec(seed=3, drop_rate=0.05)
        )
        result = session.bfs(0)
        assert result.faults is not None
        assert result.faults.injected > 0
