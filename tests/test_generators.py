"""Tests for repro.graph.generators: G(n,p), G(n,m), R-MAT, pair-id inversion."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
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


def _digests(edges, rng):
    """``(sha256 of the edges, sha256 of the generator's final state)``."""
    head = f"{edges.dtype.str}{edges.shape}".encode()
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    return (
        hashlib.sha256(head + edges.tobytes()).hexdigest(),
        hashlib.sha256(state).hexdigest(),
    )


def _stream_digests(n, p, seed):
    """``(edge count, *_digests)`` of one ``gnp_edges`` call on the Poisson
    graph's stream."""
    rng = RngFactory(seed).named("poisson-graph")
    edges = gnp_edges(n, p, rng)
    return (edges.shape[0], *_digests(edges, rng))


# Captured from the unwindowed sampler (one geometric call per block, one
# inversion of all pair ids); the windowed sampler must reproduce them.
STREAMS = {
    "one-window": (
        (2000, 8 / 1999, 1),
        8122,
        "573752a55d56260e43752a1ea79f1e62defa8c2255681991009859517808dc3c",
        "545281c3ef649e6b67508894e763db2b7b91a94c006c290dd8c25db6bb99d7fc",
    ),
    "many-windows": (
        (100_000, 16 / 99_999, 7),
        797435,
        "25be85c77bb23537a6a1e5a0a81d074d0db51bbcce5e53fa10dc694bbb69769c",
        "1be6aa2ffa8a147cb4766bbb3fae1953c9c3444a8ab7323c174e059c3d5da013",
    ),
    "second-block": (
        (30, 0.05, 4),
        27,
        "953a3a64dd91fc4c79e4a5e1c1601c533b33b76765fdfd49a7397846328424b3",
        "2be4d95c86400a7f95adf790220bb4bb40f8b97926de6c458b5bfef739dd22eb",
    ),
    "second-block-search": (
        (12, 0.4, 56),
        36,
        "22343397f4aeaabc519b1cc6daebf1ef70efa71b5f6f19b6ff7447e11a9ffd44",
        "0cb1935ad0e78020c3b67113bbd0960c101f35fb8758a21e3a5a1c39fe5cb8b1",
    ),
    "complete": (
        (50, 1.0, 0),
        1225,
        "e07dddc1a46a740a0a8b354efbffd85124cf5962c42a3ee91007406f3d05c703",
        "21a9a73c6cc6e2566de15bca5fd761cb4147c69dd2e84c912d96cf5dd1ce9237",
    ),
    "two-vertices": (
        (2, 0.5, 3),
        1,
        "7b29175914f14d24d7cb628ec3bcb9799b887c2833df0f0c1fc696d547c3b6d1",
        "345a96a3b1be4eaea60c1943ae0058403da12dc562f8d1c0aa623942f8dfea7b",
    ),
    "three-vertices": (
        (3, 0.9, 0),
        1,
        "e7ac85af49a258cd81b75b61e04cebdf11c45501eae5e6c7524f4d51996bb5aa",
        "b8f8250212cf74a57943d780b912272a60b35470432f1d8cd5af0b1afaca8bbf",
    ),
}
SMALL_STREAMS = [name for name in STREAMS if name != "many-windows"]


class TestGnpStream:
    """The sampler's edges and its generator's final state are pinned:
    drawing and inverting in windows changes neither."""

    @pytest.mark.parametrize("name", list(STREAMS))
    def test_stream_pinned(self, name):
        args, count, edges, state = STREAMS[name]
        assert _stream_digests(*args) == (count, edges, state)

    @pytest.mark.parametrize("window", [1, 3, 7, 64])
    @pytest.mark.parametrize("name", SMALL_STREAMS)
    def test_any_window_draws_the_same_stream(self, monkeypatch, name, window):
        monkeypatch.setattr(generators, "_WINDOW", window)
        args, count, edges, state = STREAMS[name]
        assert _stream_digests(*args) == (count, edges, state)

    def test_cases_cover_what_they_name(self):
        """``many-windows`` spans many windows; the ``second-block`` cases
        draw past one block of gaps, by inversion (p < 1/3) and by search."""
        (n, p, _), count, _, _ = STREAMS["many-windows"]
        assert count > 8 * generators._WINDOW
        for name in ("second-block", "second-block-search"):
            (n, p, seed), _, _, _ = STREAMS[name]
            total = n * (n - 1) // 2
            block = max(16, int(total * p * 1.1) + 4)
            rng = RngFactory(seed).named("poisson-graph")
            assert rng.geometric(p, size=block).sum() < total, name


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


def _rmat_digests(scale, edge_factor, seed, **probs):
    """:func:`_digests` of one ``rmat_edges`` call on the R-MAT graph's stream."""
    rng = RngFactory(seed).named("rmat-graph")
    return _digests(rmat_edges(scale, edge_factor, rng, **probs), rng)


# Captured from the sampler that built fresh src/dst arrays every bit step
# and stacked them at the end; the in-place sampler must reproduce them.
RMAT_STREAMS = {
    "scale-3": (
        (3, 4, 1, {}),
        "979b11ae620a0e59abbe27644574dad6b8a706ca6f540b58c044c8530ca31e47",
        "836e974f6c68284f934bfd6740b1c58cd72720ea42e6456cfa0c6b6d54e78007",
    ),
    "scale-12-custom-probs": (
        (12, 8, 2, {"a": 0.45, "b": 0.15, "c": 0.15}),
        "b494728d06a1ba6ed82cef86dcda7e61d75b74c55d82335a5df1c9a514af3d2b",
        "08896aea659b08446a23418eb42fc55e200f8ddf30bc9db0faa68810e693dd48",
    ),
    "scale-16": (
        (16, 16, 3, {}),
        "d8eb8e72685d14309203130c26aa0f5e34d54abe1a1cd58b5ad5864fa0d59ee9",
        "be1fd6448588b020cb20016c05c1d509f2bd49ad23d8c6157edab251875c7cb2",
    ),
}


class TestRmatStream:
    """The edges and the generator's final state are pinned: filling one
    output in place changes neither."""

    @pytest.mark.parametrize("name", list(RMAT_STREAMS))
    def test_stream_pinned(self, name):
        (scale, edge_factor, seed, probs), edges, state = RMAT_STREAMS[name]
        assert _rmat_digests(scale, edge_factor, seed, **probs) == (edges, state)


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
