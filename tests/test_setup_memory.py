"""Set-up's memory: building a session's storage must not set the peak.

Section 2.4 keeps O(n/P) per node; the transients of building that storage
are held here to a bound over what the build returns, measured with
``tracemalloc`` (which sees NumPy's buffers).  The sizes are a few windows
of the sampler and a ``data-topdown``-shaped partition scaled down.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.graph import generators
from repro.graph.generators import build_graph, gnp_edges, rmat_edges
from repro.partition.two_d import TwoDPartition
from repro.types import GraphSpec, GridShape
from repro.utils.rng import RngFactory


def traced_peak(build):
    """``(result, peak bytes allocated while build() ran)``."""
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_sampler_peaks_at_its_output_plus_a_few_windows():
    """``gnp_edges`` writes its windows into one preallocated output: the
    peak is the output plus O(window), not a multiple of the edge count
    (the unwindowed sampler held about ten pair-sized temporaries)."""
    n, k = 40_000, 16
    rng = RngFactory(3).named("poisson-graph")
    edges, peak = traced_peak(lambda: gnp_edges(n, k / (n - 1), rng))
    window_bytes = generators._WINDOW * np.dtype(np.int64).itemsize
    assert edges.nbytes > 4 * window_bytes  # several windows, so the bound bites
    assert peak <= edges.nbytes + 12 * window_bytes


def test_rmat_sampler_fills_its_output_in_place():
    """Scale 16, edge factor 16: ``rmat_edges`` shifts and ORs the bits
    into one ``(m, 2)`` output and draws into reused buffers, so the peak
    stays within 2.5 x the 16 MB output (fresh per-step arrays and a final
    stack peaked at 3.6 x)."""
    rng = RngFactory(0).named("rmat-graph")
    edges, peak = traced_peak(lambda: rmat_edges(16, 16, rng))
    assert edges.shape == (1 << 20, 2) and edges.flags.c_contiguous
    assert peak <= 2.5 * edges.nbytes


def test_partition_build_peaks_within_four_slot_tables():
    """Numbering the row slots sorts nothing but the one entry key: on a
    ``data-topdown``-shaped input (4 x 4, k = 16) the build's peak stays
    within 4 x ``row_slots.nbytes`` (np.unique's inverse took it to 8.1 x)."""
    graph = build_graph(GraphSpec(n=20_000, k=16, seed=5))
    part, peak = traced_peak(lambda: TwoDPartition(graph, GridShape(4, 4)))
    assert peak <= 4 * part.row_slots.nbytes
