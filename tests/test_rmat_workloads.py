"""First-class R-MAT workloads: GraphSpec.kind, generation, partitioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.frontier_model import (
    frontier_fractions_for,
    predict_frontier_fractions,
)
from repro.errors import ConfigurationError, PartitionError
from repro.graph.distributed_gen import DistributedGraphBuilder
from repro.graph.generators import build_graph, rmat_edges
from repro.partition import balance_report, degree_aware_relabeling
from repro.partition.two_d import TwoDPartition
from repro.session import BfsSession
from repro.types import GraphSpec, GridShape
from repro.utils.rng import RngFactory


class TestGraphSpecKind:
    def test_default_is_poisson(self):
        spec = GraphSpec(n=100, k=4.0)
        assert spec.kind == "poisson"
        assert spec.scale is None

    def test_rmat_constructor(self):
        spec = GraphSpec.rmat(10, edge_factor=8, seed=7)
        assert spec.kind == "rmat"
        assert spec.n == 1024 and spec.scale == 10
        assert spec.edge_factor == 8
        assert spec.k == 16.0  # undirected degree: 2 * edge_factor
        assert spec.expected_edges == 1024 * 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GraphSpec(n=100, k=4.0, kind="smallworld")

    def test_rmat_needs_consistent_scale(self):
        with pytest.raises(ValueError):
            GraphSpec(n=100, k=4.0, kind="rmat")  # no scale
        with pytest.raises(ValueError):
            GraphSpec(n=100, k=4.0, kind="rmat", scale=10)  # n != 2**scale

    def test_scale_only_valid_for_rmat(self):
        with pytest.raises(ValueError):
            GraphSpec(n=1024, k=4.0, scale=10)

    def test_rmat_parameter_validation(self):
        with pytest.raises(ValueError):
            GraphSpec.rmat(10, edge_factor=0)
        with pytest.raises(ValueError):
            GraphSpec.rmat(10, a=-0.1)


class TestRmatProperties:
    def _edges(self, seed=3, scale=10, edge_factor=8):
        rng = RngFactory(seed).named("rmat-test")
        return rmat_edges(scale, edge_factor, rng)

    def test_seeded_determinism(self):
        assert np.array_equal(self._edges(seed=5), self._edges(seed=5))
        assert not np.array_equal(self._edges(seed=5), self._edges(seed=6))

    def test_build_graph_determinism(self):
        spec = GraphSpec.rmat(10, edge_factor=8, seed=9)
        a, b = build_graph(spec), build_graph(spec)
        assert np.array_equal(a.edge_array(), b.edge_array())
        assert a.n == 1 << 10

    def test_top_one_percent_holds_superlinear_edge_share(self):
        g = build_graph(GraphSpec.rmat(12, edge_factor=16, seed=3))
        deg = np.sort(g.degree())[::-1]
        top = max(1, g.n // 100)
        share = deg[:top].sum() / deg.sum()
        # a proportional share would be 1%; R-MAT hubs hold far more
        assert share > 0.05

    def test_no_self_loops_or_duplicates_after_csr(self):
        g = build_graph(GraphSpec.rmat(9, edge_factor=8, seed=1))
        edges = g.edge_array()
        assert (edges[:, 0] != edges[:, 1]).all()
        canon = edges[:, 0] * g.n + edges[:, 1]
        assert np.unique(canon).size == canon.size

    def test_poisson_dispatch_unchanged(self):
        from repro.graph.generators import poisson_random_graph

        spec = GraphSpec(n=500, k=6.0, seed=2)
        assert np.array_equal(
            build_graph(spec).edge_array(),
            poisson_random_graph(spec).edge_array(),
        )


class TestFrontierModelGuard:
    def test_poisson_spec_delegates_to_prediction(self):
        spec = GraphSpec(n=4_000, k=8.0, seed=1)
        assert np.array_equal(
            frontier_fractions_for(spec),
            predict_frontier_fractions(spec.n, spec.k),
        )

    def test_rmat_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="[Pp]oisson"):
            frontier_fractions_for(GraphSpec.rmat(10, edge_factor=8))


class TestDistributedRmatGeneration:
    def test_reference_matches_central_generator(self):
        spec = GraphSpec.rmat(9, edge_factor=8, seed=11)
        builder = DistributedGraphBuilder(spec, GridShape(2, 2))
        assert np.array_equal(
            builder.reference_graph().edge_array(),
            build_graph(spec).edge_array(),
        )

    def test_rank_locals_tile_the_edge_set(self):
        spec = GraphSpec.rmat(9, edge_factor=8, seed=11)
        builder = DistributedGraphBuilder(spec, GridShape(2, 2))
        partition = builder.build_partition()
        entries = partition.memory_footprints()["edge_entries"].sum()
        # the 2D layout stores each undirected edge twice (both orientations)
        assert entries == 2 * build_graph(spec).num_edges

    def test_partition_runs_bfs_identically(self):
        from repro.bfs.level_sync import LevelSyncEngine, run_bfs

        spec = GraphSpec.rmat(9, edge_factor=8, seed=11)
        central = build_graph(spec)
        session = BfsSession(central, (2, 2))
        expected = session.bfs(3).levels
        partition = DistributedGraphBuilder(spec, GridShape(2, 2)).build_partition()
        engine = LevelSyncEngine(partition, session._new_comm())
        assert np.array_equal(run_bfs(engine, 3).levels, expected)


class TestDegreeAwarePartition:
    @pytest.fixture(scope="class")
    def rmat_graph(self):
        return build_graph(GraphSpec.rmat(11, edge_factor=16, seed=3))

    def test_is_a_permutation(self, rmat_graph):
        relabeling = degree_aware_relabeling(rmat_graph, 4)
        assert np.array_equal(
            np.sort(relabeling.to_new), np.arange(rmat_graph.n)
        )

    def test_hubs_dealt_round_robin(self, rmat_graph):
        nblocks = 4
        relabeling = degree_aware_relabeling(rmat_graph, nblocks)
        deg = rmat_graph.degree()
        order = np.argsort(-deg, kind="stable")
        dist_size = rmat_graph.n // nblocks
        # the top-nblocks hubs land in nblocks distinct blocks
        blocks = relabeling.to_new[order[:nblocks]] // dist_size
        assert np.unique(blocks).size == nblocks

    def test_improves_1d_vertex_balance(self, rmat_graph):
        nranks = 4
        grid = GridShape(1, nranks)
        plain = TwoDPartition(rmat_graph, grid)
        relabeling = degree_aware_relabeling(rmat_graph, nranks)
        balanced = TwoDPartition(relabeling.apply(rmat_graph), grid)
        before = balance_report(plain, metric="edge_entries").imbalance
        after = balance_report(balanced, metric="edge_entries").imbalance
        assert after < before
        assert after < 1.3

    def test_invalid_nblocks_rejected(self, rmat_graph):
        with pytest.raises(PartitionError):
            degree_aware_relabeling(rmat_graph, 0)
        with pytest.raises(PartitionError):
            degree_aware_relabeling(rmat_graph, rmat_graph.n + 1)

    def test_uneven_blocks_keep_block_sizes(self):
        g = build_graph(GraphSpec(n=10, k=3.0, seed=1))
        relabeling = degree_aware_relabeling(g, 3)  # 10 = 4 + 3 + 3
        assert np.array_equal(np.sort(relabeling.to_new), np.arange(10))


class TestSessionRelabel:
    @pytest.fixture(scope="class")
    def rmat_graph(self):
        return build_graph(GraphSpec.rmat(10, edge_factor=8, seed=3))

    @pytest.mark.parametrize("relabel", ["degree", "random"])
    def test_levels_in_original_ids(self, rmat_graph, relabel):
        base = BfsSession(rmat_graph, (2, 2)).bfs(5)
        result = BfsSession(rmat_graph, (2, 2), relabel=relabel).bfs(5)
        assert np.array_equal(result.levels, base.levels)
        assert result.source == 5

    def test_degree_relabel_balances_partition(self, rmat_graph):
        plain = BfsSession(rmat_graph, (2, 2))
        balanced = BfsSession(rmat_graph, (2, 2), relabel="degree")
        assert (
            balance_report(balanced.partition).imbalance
            < balance_report(plain.partition).imbalance
        )

    def test_batched_and_bidirectional_queries(self, rmat_graph):
        session = BfsSession(rmat_graph, (2, 2), relabel="degree")
        plain = BfsSession(rmat_graph, (2, 2))
        batch = session.bfs_many([5, 9, 33])
        assert batch.sources == (5, 9, 33)
        for i, source in enumerate((5, 9, 33)):
            assert np.array_equal(
                batch.levels_of(i), plain.bfs(source).levels
            )
        assert session.distance(5, 900) == plain.distance(5, 900)
        assert session.shortest_path(5, 900) is not None

    def test_unknown_strategy_rejected(self, rmat_graph):
        with pytest.raises(ConfigurationError, match="relabel"):
            BfsSession(rmat_graph, (2, 2), relabel="alphabetical")

    def test_hybrid_direction_composes_with_relabel(self, rmat_graph):
        from repro.bfs.options import BfsOptions

        base = BfsSession(rmat_graph, (2, 2)).bfs(5)
        session = BfsSession(
            rmat_graph, (2, 2),
            opts=BfsOptions(direction="hybrid"), relabel="degree",
        )
        result = session.bfs(5)
        assert np.array_equal(result.levels, base.levels)
        assert result.stats.direction_counts().get("bottom-up", 0) > 0


class TestHarnessRmat:
    def test_experiment_and_export_carry_kind(self):
        from repro.bfs.options import BfsOptions
        from repro.harness.runner import Run, execute

        run = Run(
            "rmat-hybrid", GraphSpec.rmat(9, edge_factor=8, seed=2), GridShape(2, 2),
            opts=BfsOptions(direction="hybrid"), pairs=((3, None),),
        )
        row = execute(run).row()
        assert row["kind"] == "rmat"
        assert row["scale"] == 9
        assert row["edge_factor"] == 8
        assert row["direction"] == "hybrid"
        assert row["bottom_up_levels"] > 0
        assert row["edges_scanned"] > 0
