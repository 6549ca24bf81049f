"""Tests for repro.graph.generators: G(n,p), G(n,m), R-MAT, pair-id inversion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    _pair_ids_to_edges,
    dedup_undirected_edges,
    gnm_edges,
    gnp_edges,
    poisson_random_graph,
    rmat_edges,
)
from repro.types import GraphSpec
from repro.utils.rng import RngFactory


def _rng(seed=0):
    return RngFactory(seed).named("test-gen")


class TestPairIdInversion:
    def test_first_and_last(self):
        n = 6
        total = n * (n - 1) // 2
        edges = _pair_ids_to_edges(np.arange(total), n)
        assert edges[0].tolist() == [0, 1]
        assert edges[n - 2].tolist() == [0, n - 1]
        assert edges[n - 1].tolist() == [1, 2]
        assert edges[-1].tolist() == [n - 2, n - 1]

    def test_bijective_small(self):
        n = 9
        total = n * (n - 1) // 2
        edges = _pair_ids_to_edges(np.arange(total), n)
        seen = set(map(tuple, edges.tolist()))
        assert len(seen) == total
        assert all(0 <= u < v < n for u, v in seen)

    @given(st.integers(2, 2000))
    @settings(max_examples=40)
    def test_bijective_boundaries(self, n):
        """Row boundaries are where float rounding could bite — test them."""
        total = n * (n - 1) // 2
        probe = np.unique(
            np.clip(
                np.concatenate(
                    [
                        np.array([0, total - 1]),
                        np.cumsum(np.arange(n - 1, 0, -1))[:-1],  # row starts
                        np.cumsum(np.arange(n - 1, 0, -1))[:-1] - 1,  # row ends
                    ]
                ),
                0,
                total - 1,
            )
        )
        edges = _pair_ids_to_edges(probe, n)
        u, v = edges[:, 0], edges[:, 1]
        assert (u < v).all() and (u >= 0).all() and (v < n).all()
        # invert: id = u*n - u*(u+1)/2 + (v - u - 1)
        ids = u * n - u * (u + 1) // 2 + (v - u - 1)
        assert np.array_equal(ids, probe)


class TestGnp:
    def test_zero_probability(self):
        assert gnp_edges(100, 0.0, _rng()).shape == (0, 2)

    def test_full_probability(self):
        edges = gnp_edges(6, 1.0, _rng())
        assert edges.shape == (15, 2)

    def test_expected_count(self):
        n, p = 2000, 0.005
        m = gnp_edges(n, p, _rng()).shape[0]
        expected = n * (n - 1) / 2 * p
        sigma = np.sqrt(expected * (1 - p))
        assert abs(m - expected) < 5 * sigma

    def test_edges_valid_and_unique(self):
        edges = gnp_edges(300, 0.02, _rng(3))
        assert (edges[:, 0] < edges[:, 1]).all()
        assert len(set(map(tuple, edges.tolist()))) == edges.shape[0]

    def test_deterministic(self):
        a = gnp_edges(200, 0.05, _rng(9))
        b = gnp_edges(200, 0.05, _rng(9))
        assert np.array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gnp_edges(10, 1.5, _rng())

    def test_tiny_graph(self):
        assert gnp_edges(1, 0.5, _rng()).shape == (0, 2)


class TestGnm:
    def test_exact_count(self):
        edges = gnm_edges(100, 250, _rng())
        assert edges.shape == (250, 2)
        assert len(set(map(tuple, edges.tolist()))) == 250

    def test_zero_edges(self):
        assert gnm_edges(10, 0, _rng()).shape == (0, 2)

    def test_complete_graph(self):
        edges = gnm_edges(5, 10, _rng())
        assert edges.shape == (10, 2)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_edges(4, 7, _rng())

    def test_edges_on_one_vertex_rejected(self):
        with pytest.raises(ValueError):
            gnm_edges(1, 1, _rng())


class TestPoissonRandomGraph:
    def test_degree_distribution_poisson(self):
        g = poisson_random_graph(GraphSpec(n=5000, k=8, seed=1))
        deg = g.degree()
        # Poisson(8): mean == variance == 8 (tolerances ~5 sigma).
        assert abs(deg.mean() - 8) < 0.5
        assert abs(deg.var() - 8) < 1.5

    def test_deterministic_per_seed(self):
        a = poisson_random_graph(GraphSpec(n=500, k=5, seed=2))
        b = poisson_random_graph(GraphSpec(n=500, k=5, seed=2))
        assert np.array_equal(a.indices, b.indices)

    def test_seed_changes_graph(self):
        a = poisson_random_graph(GraphSpec(n=500, k=5, seed=2))
        b = poisson_random_graph(GraphSpec(n=500, k=5, seed=3))
        assert not np.array_equal(a.indices, b.indices)

    def test_single_vertex(self):
        g = poisson_random_graph(GraphSpec(n=1, k=0))
        assert g.n == 1 and g.num_edges == 0


class TestRmat:
    def test_size(self):
        edges = rmat_edges(6, 8, _rng())
        assert edges.shape == (64 * 8, 2)
        assert edges.max() < 64 and edges.min() >= 0

    def test_skewed_degrees(self):
        from repro.graph.csr import CsrGraph

        edges = rmat_edges(10, 16, _rng(4))
        g = CsrGraph.from_edges(1 << 10, edges)
        deg = g.degree()
        # R-MAT is heavy-tailed: max degree far above the mean.
        assert deg.max() > 4 * deg.mean()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(0, 4, _rng())

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 4, _rng(), a=0.6, b=0.3, c=0.2)


class TestDedup:
    def test_canonicalises(self):
        edges = np.array([[2, 1], [1, 2], [3, 3], [0, 4]])
        out = dedup_undirected_edges(edges)
        assert out.tolist() == [[0, 4], [1, 2]]

    def test_empty(self):
        assert dedup_undirected_edges(np.empty((0, 2))).shape == (0, 2)

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80)
    )
    def test_property(self, pairs):
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        out = dedup_undirected_edges(arr)
        expected = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        assert out.dtype == np.int64 and out.shape == (len(expected), 2)
        assert list(map(tuple, out.tolist())) == expected

    def test_only_self_loops(self):
        out = dedup_undirected_edges(np.array([[3, 3], [0, 0]]))
        assert out.dtype == np.int64 and out.shape == (0, 2)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            dedup_undirected_edges(np.array([[-1, 2]]))
