"""Tests for the analytic model: gamma, message-length bounds, crossover, fits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.crossover import crossover_degree, partition_message_gap
from repro.analysis.gamma import gamma
from repro.analysis.model import (
    MessageLengthModel,
    expected_expand_length_2d,
    expected_fold_length_1d,
    expected_fold_length_2d,
    worst_case_expand_length_2d,
)
from repro.analysis.scaling import expected_diameter, log_fit, speedup_curve, sqrt_fit


class TestGamma:
    def test_zero_rows(self):
        assert gamma(0, 1000, 10) == 0.0

    def test_large_m_approaches_one(self):
        assert gamma(1e9, 1e9, 10) == pytest.approx(1.0, abs=1e-4)

    def test_small_m_approaches_mk_over_n(self):
        n, k = 1e9, 10
        assert gamma(1, n, k) == pytest.approx(k / n, rel=1e-3)

    def test_monotone_in_m(self):
        values = gamma(np.array([1, 10, 100, 1000]), 1e6, 8)
        assert np.all(np.diff(values) > 0)

    def test_vectorised_matches_scalar(self):
        ms = np.array([3.0, 30.0, 300.0])
        vec = gamma(ms, 1e5, 12)
        assert vec.tolist() == [gamma(float(m), 1e5, 12) for m in ms]

    def test_exact_formula_small_n(self):
        # gamma(m) = 1 - ((n-1)/n)^{mk} directly
        n, k, m = 100, 5, 7
        assert gamma(m, n, k) == pytest.approx(1 - (99 / 100) ** (m * k))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gamma(1, 0, 5)
        with pytest.raises(ValueError):
            gamma(1, 10, -1)
        with pytest.raises(ValueError):
            gamma(-1, 10, 5)

    @given(st.floats(1, 1e6), st.floats(1.01, 1e9), st.floats(0, 100))
    @settings(max_examples=50)
    def test_is_probability(self, m, n, k):
        value = gamma(m, n, k)
        assert 0.0 <= value <= 1.0


class TestMessageLengthBounds:
    def test_1d_worst_case_is_nk_over_p(self):
        """Message length never exceeds nk/P (every edge communicates)."""
        n, k, p = 1e6, 10, 128
        assert expected_fold_length_1d(n, k, p) <= n * k / p

    def test_2d_lengths_bounded_by_n_over_p_times_groups(self):
        n, k, p, r, c = 1e6, 10, 256, 16, 16
        assert expected_expand_length_2d(n, k, p, r) <= (n / p) * (r - 1)
        assert expected_fold_length_2d(n, k, p, c) <= (n / p) * (c - 1)

    def test_dense_expand_grows_with_r(self):
        n, p = 1e6, 1024
        small_r = worst_case_expand_length_2d(n, p, 8)
        large_r = worst_case_expand_length_2d(n, p, 512)
        assert large_r > 10 * small_r

    def test_sparse_expand_saturates_with_r(self):
        """The gamma factor caps the sparse expand as R grows (Section 3.1:
        'the maximum expected message size is bounded as R increases')."""
        n, k, p = 1e7, 10, 4096
        lengths = [expected_expand_length_2d(n, k, p, r) for r in (8, 64, 512, 4096)]
        # saturation: growth from R=512 to R=4096 far below proportional (8x)
        assert lengths[3] < 2.0 * lengths[2]
        # and stays within a small multiple of n/P * k
        assert lengths[3] <= (n / p) * k

    def test_large_n_limit_is_nk_over_p(self):
        """For large n the expected size approaches (n/P)k (Section 3.2)."""
        n, k, p = 1e12, 50, 1024
        model = MessageLengthModel(n=int(n), k=k, rows=32, cols=32)
        assert model.fold_1d == pytest.approx(n * k / p, rel=0.05)

    def test_model_bundle_consistency(self):
        model = MessageLengthModel(n=10**6, k=10, rows=16, cols=16)
        assert model.p == 256
        assert model.total_2d == pytest.approx(model.expand_2d + model.fold_2d)
        assert model.per_processor_bound == 10**6 / 256
        assert model.expand_2d <= model.expand_2d_dense


class TestCrossover:
    def test_paper_design_point(self):
        """Paper: k = 34 for P=400, n=4e7.  Exact root of the printed
        equation is ~31.3; accept the paper's neighbourhood."""
        k = crossover_degree(4e7, 400)
        assert 28 <= k <= 37

    def test_gap_signs_around_crossover(self):
        n, p = 4e7, 400
        k_star = crossover_degree(n, p)
        assert partition_message_gap(k_star * 0.5, n, p) < 0  # low degree: 1D better
        assert partition_message_gap(k_star * 2.0, n, p) > 0  # high degree: 2D better

    def test_scaled_down_instance(self):
        k = crossover_degree(40_000, 100)
        assert 1 < k < 200

    def test_too_few_processors_rejected(self):
        with pytest.raises(ValueError):
            crossover_degree(1e6, 2)


class TestScalingHelpers:
    def test_speedup_curve(self):
        sp = speedup_curve(np.array([8.0, 4.0, 2.0]))
        assert sp.tolist() == [1.0, 2.0, 4.0]

    def test_speedup_custom_baseline(self):
        sp = speedup_curve(np.array([4.0, 2.0]), baseline=8.0)
        assert sp.tolist() == [2.0, 4.0]

    def test_speedup_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup_curve(np.array([1.0, 0.0]))

    def test_log_fit_recovers_coefficients(self):
        p = np.array([1, 4, 16, 64, 256])
        times = 0.5 * np.log2(p) + 2.0
        a, b, r2 = log_fit(p, times)
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(2.0)
        assert r2 == pytest.approx(1.0)

    def test_sqrt_fit_recovers_coefficient(self):
        p = np.array([1, 4, 16, 64])
        speedups = 1.5 * np.sqrt(p)
        a, r2 = sqrt_fit(p, speedups)
        assert a == pytest.approx(1.5)
        assert r2 == pytest.approx(1.0)

    def test_fit_input_validation(self):
        with pytest.raises(ValueError):
            log_fit(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            sqrt_fit(np.array([1, 2]), np.array([1.0]))

    def test_expected_diameter(self):
        assert expected_diameter(1000, 10) == pytest.approx(3.0)
        assert expected_diameter(1, 10) == 0.0
        assert expected_diameter(100, 1) == float("inf")

    def test_diameter_shrinks_with_degree(self):
        assert expected_diameter(1e6, 100) < expected_diameter(1e6, 10)


class TestModelAgainstMeasurement:
    def test_expected_vs_measured_fold_1d(self):
        """The gamma model should predict the measured worst-case (all
        vertices on the frontier) 1D fold volume within ~25%."""
        from repro.api import build_engine
        from repro.graph.generators import poisson_random_graph
        from repro.types import GraphSpec, GridShape

        n, k, p = 3000, 8, 4
        graph = poisson_random_graph(GraphSpec(n=n, k=k, seed=2))
        engine = build_engine(graph, GridShape(p, 1), system="bluegene-1d")
        engine.start(0)
        # Run to exhaustion and accumulate total fold deliveries; the model
        # bounds the *sum over levels* because every vertex is on the
        # frontier exactly once and every edge fires at most once per side.
        while engine.step():
            pass
        measured_total = engine.comm.stats.volume_per_level("fold").sum()
        predicted = expected_fold_length_1d(n, k, p) * p  # all P senders
        # sent-cache dedup keeps measured below the model's no-dedup bound
        assert measured_total <= predicted * 1.25
        assert measured_total >= predicted * 0.2
