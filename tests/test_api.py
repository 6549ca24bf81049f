"""Tests for the high-level facade (repro.api) and package exports."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import bidirectional_bfs, build_communicator, build_engine, distributed_bfs
from repro.bfs.level_sync import LevelSyncEngine
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import ConfigurationError
from repro.faults.chaos import run_chaos
from repro.machine.bluegene import BLUEGENE_L
from repro.session import BfsSession
from repro.types import GridShape, SystemSpec, resolve_system


class TestBuildCommunicator:
    def test_default_bluegene_planar(self):
        comm = build_communicator(GridShape(4, 4))
        assert comm.nranks == 16
        assert comm.model.name == "BlueGene/L"

    def test_mcr_flat(self):
        comm = build_communicator(GridShape(2, 2), system="mcr-2d")
        assert comm.model.name == "MCR"
        assert comm.mapping.hops(0, 3) == 1

    def test_custom_model(self):
        model = BLUEGENE_L.with_overrides(alpha=1e-5)
        comm = build_communicator(GridShape(2, 2), system=SystemSpec(machine=model))
        assert comm.model.alpha == 1e-5

    def test_row_major_mapping(self):
        comm = build_communicator(GridShape(2, 2), system="bluegene-row-major")
        assert comm.mapping.node_of(3) == 3

    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigurationError):
            build_communicator(GridShape(2, 2), system=SystemSpec(machine="cray"))

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigurationError):
            build_communicator(GridShape(2, 2), system=SystemSpec(mapping="hilbert"))

    def test_buffer_capacity_threaded_through(self):
        comm = build_communicator(GridShape(2, 2), buffer_capacity=64)
        assert comm.buffer_capacity == 64

    def test_tuple_grid_accepted(self):
        """A tuple grid is coerced, as every other entry point does."""
        comm = build_communicator((2, 3))
        assert comm.grid == GridShape(2, 3) and comm.nranks == 6


class TestBuildEngine:
    def test_2d_default(self, small_graph):
        engine = build_engine(small_graph, (2, 2))
        assert isinstance(engine, LevelSyncEngine)

    def test_1d(self, small_graph):
        """Algorithm 2 on 1 x P, placed as the requested 4 x 1 grid is."""
        engine = build_engine(small_graph, (4, 1), system="bluegene-1d")
        assert isinstance(engine, LevelSyncEngine)
        assert engine.partition.grid == engine.comm.grid == GridShape(1, 4)
        placed = build_communicator(GridShape(4, 1)).mapping.rank_to_node
        assert np.array_equal(engine.comm.mapping.rank_to_node, placed)

    def test_tuple_grid_accepted(self, small_graph):
        engine = build_engine(small_graph, (2, 3))
        assert engine.comm.nranks == 6

    def test_prebuilt_comm_must_chunk_at_the_options_capacity(self, small_graph):
        """The engine reads the capacity from its communicator only, so a
        communicator that would not chunk as ``opts`` say is rejected."""
        comm = build_communicator(GridShape(2, 2))
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            build_engine(small_graph, (2, 2), opts=BfsOptions(buffer_capacity=4), comm=comm)
        capped = build_communicator(GridShape(2, 2), buffer_capacity=4)
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            build_engine(small_graph, (2, 2), comm=capped)
        engine = build_engine(
            small_graph, (2, 2), opts=BfsOptions(buffer_capacity=4), comm=capped
        )
        assert engine.comm is capped

    def test_rebind_checks_the_capacity_too(self, small_graph):
        engine = build_engine(small_graph, (2, 2), opts=BfsOptions(buffer_capacity=4))
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            engine.rebind(build_communicator(GridShape(2, 2)))
        engine.rebind(build_communicator(GridShape(2, 2), buffer_capacity=4))

    def test_1d_needs_degenerate_grid(self, small_graph):
        with pytest.raises(ConfigurationError):
            build_engine(small_graph, (2, 2), system="bluegene-1d")

    def test_unknown_layout_rejected(self, small_graph):
        with pytest.raises(ConfigurationError):
            build_engine(small_graph, (2, 2), system=SystemSpec(layout="3d"))


class TestOneCallApis:
    def test_distributed_bfs(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0)
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_distributed_bfs_mcr(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, system="mcr-2d")
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_bidirectional(self, small_graph):
        result = bidirectional_bfs(small_graph, (2, 2), 0, 100)
        assert result.path_length == int(serial_bfs(small_graph, 0)[100])

    def test_quickstart_docstring_example(self):
        graph = repro.poisson_random_graph(repro.GraphSpec(n=1000, k=10, seed=1))
        result = repro.distributed_bfs(graph, grid=(4, 4), source=0)
        assert result.num_reached > 900  # k=10: giant component

    def test_public_exports_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestDeprecatedKwargs:
    """The PR 6 machine/mapping/layout kwargs are gone; system= is the only road."""

    def test_legacy_kwargs_raise_type_error(self, small_graph):
        calls = [
            lambda **kw: build_communicator(GridShape(2, 2), **kw),
            lambda **kw: build_engine(small_graph, (2, 2), **kw),
            lambda **kw: distributed_bfs(small_graph, (2, 2), 0, **kw),
            lambda **kw: bidirectional_bfs(small_graph, (2, 2), 0, 5, **kw),
            lambda **kw: BfsSession(small_graph, (2, 2), **kw),
            lambda **kw: run_chaos(small_graph, (2, 2), 0, range(1), **kw),
        ]
        legacy = [{"machine": "bluegene"}, {"mapping": "planar"}, {"layout": "2d"}]
        for call in calls:
            for kwarg in legacy:
                with pytest.raises(TypeError, match="unexpected keyword"):
                    call(**kwarg)
        assert not hasattr(repro.api, "resolve_entry_system")

    def test_system_path_is_silent(self, small_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            distributed_bfs(small_graph, (2, 2), 0, system="bluegene-2d")

    def test_bidirectional_system_path_is_silent(self, small_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            bidirectional_bfs(small_graph, (2, 2), 0, 5, system="bluegene-2d")

    def test_legacy_kwargs_still_override(self, small_graph):
        """The per-axis overrides live on in ``resolve_system`` (the CLI's flags)."""
        result = distributed_bfs(
            small_graph, (4, 1), 0, system=resolve_system("bluegene-2d", layout="1d")
        )
        assert np.array_equal(result.levels, serial_bfs(small_graph, 0))
