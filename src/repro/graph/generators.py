"""Random-graph generators.

The paper evaluates on *Poisson random graphs*: Erdős–Rényi graphs in which
"the probability of any two vertices being connected is equal" and vertex
degrees are Poisson-distributed with mean ``k``.  :func:`poisson_random_graph`
is the primary workload generator; :func:`rmat_edges` (Graph500-style R-MAT)
is provided as an extension workload with skewed degrees.

All samplers are vectorised: the G(n,p) sampler uses geometric gap-skipping
over the linearised strict-upper-triangle pair space, so its cost is
O(expected edges), never O(n^2).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CsrGraph, sorted_edge_keys
from repro.types import VERTEX_DTYPE, GraphSpec
from repro.utils.rng import RngFactory
from repro.utils.validation import check_probability

#: pair ids drawn and inverted per array call by the G(n, p) sampler: its
#: working set beyond the output is a few arrays of this length
_WINDOW = 1 << 16


def build_graph(spec: GraphSpec) -> CsrGraph:
    """Materialise the graph described by ``spec``, dispatching on ``kind``.

    The single entry point the harness, session helpers, and CLI use so a
    :class:`GraphSpec` of any kind flows through the whole stack.  Poisson
    specs route to :func:`poisson_random_graph`; R-MAT specs sample
    :func:`rmat_edges` under a seed-derived named stream and clean up
    duplicates/self-loops via :meth:`CsrGraph.from_edges`.  Deterministic
    in ``spec`` (including ``seed``).
    """
    if spec.kind == "rmat":
        rng = RngFactory(spec.seed).named("rmat-graph")
        edges = rmat_edges(
            spec.scale, spec.edge_factor, rng, a=spec.a, b=spec.b, c=spec.c
        )
        return CsrGraph.from_edges(spec.n, edges)
    return poisson_random_graph(spec)


def poisson_random_graph(spec: GraphSpec) -> CsrGraph:
    """Generate the Poisson random graph described by ``spec``.

    Uses exact G(n, p) sampling with ``p = k / (n - 1)``, which yields
    Poisson(k)-distributed degrees for large ``n`` — the paper's model.
    """
    if spec.n == 1:
        return CsrGraph.empty(1)
    p = spec.k / (spec.n - 1)
    rng = RngFactory(spec.seed).named("poisson-graph")
    edges = gnp_edges(spec.n, p, rng)
    return CsrGraph.from_edges(spec.n, edges)


def gnp_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sample the edge set of a G(n, p) graph as an ``(m, 2)`` array.

    Each of the ``n*(n-1)/2`` unordered pairs is included independently with
    probability ``p``.  Implemented by geometric gap-skipping through the
    linearised pair index space, ``_WINDOW`` pair ids per array call: one
    pass counts the edges, a second, from the same generator state, inverts
    them into the preallocated output, so the peak is the output plus
    O(window).  Windows of one generator draw what one call would, so the
    edges and the generator's final state do not depend on the window.
    """
    check_probability("p", p)
    if n < 2 or p == 0.0:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        windows = (
            np.arange(lo, min(lo + _WINDOW, total_pairs), dtype=np.int64)
            for lo in range(0, total_pairs, _WINDOW)
        )
        return _edges_of_windows(windows, total_pairs, n)
    state = rng.bit_generator.state
    m = sum(ids.size for ids in _gnp_pair_windows(rng, p, total_pairs))
    rng.bit_generator.state = state
    return _edges_of_windows(_gnp_pair_windows(rng, p, total_pairs), m, n)


def _gnp_pair_windows(rng: np.random.Generator, p: float, total_pairs: int):
    """Yield the pair ids G(n, p) selects, ascending, a window at a time.

    Gaps between successive selected pair ids are iid Geometric(p), drawn
    in blocks of ``block`` gaps until a block passes the last pair.  Every
    block is drawn in full, its tail past the last pair included, so the
    generator ends where one ``geometric(p, size=block)`` call per block
    leaves it.
    """
    block = max(16, int(total_pairs * p * 1.1) + 4)
    position = -1  # index of the last selected pair
    while position < total_pairs - 1:
        for lo in range(0, block, _WINDOW):
            gaps = rng.geometric(p, size=min(_WINDOW, block - lo))
            if position >= total_pairs:
                continue  # the tail of the last block: drawn, not used
            ids = np.cumsum(gaps)
            ids += position
            position = int(ids[-1])
            yield ids[: np.searchsorted(ids, total_pairs)]


def gnm_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Sample exactly ``m`` distinct edges uniformly (G(n, m) model)."""
    if n < 2:
        if m:
            raise ValueError("cannot place edges on fewer than two vertices")
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    total_pairs = n * (n - 1) // 2
    if m > total_pairs:
        raise ValueError(f"m={m} exceeds the {total_pairs} available pairs")
    if m == 0:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    # Oversample with rejection until we have m distinct pair ids.  For the
    # sparse graphs used here (m << total_pairs) one round almost always
    # suffices.
    chosen = np.unique(rng.integers(0, total_pairs, size=int(m * 1.1) + 8))
    while chosen.size < m:
        extra = rng.integers(0, total_pairs, size=m)
        chosen = np.unique(np.concatenate([chosen, extra]))
    chosen = rng.permutation(chosen)[:m]
    return _pair_ids_to_edges(np.sort(chosen).astype(np.int64), n)


def rmat_edges(
    scale: int,
    edge_factor: int,
    rng: np.random.Generator,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> np.ndarray:
    """Sample R-MAT edges (Graph500 Kronecker defaults) on ``2**scale`` vertices.

    Returned edges may contain duplicates and self-loops;
    :meth:`CsrGraph.from_edges` cleans them up.  This is an *extension*
    workload — the paper itself uses Poisson graphs only — included because
    this paper directly influenced the Graph500 benchmark.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum to <= 1")
    n = 1 << scale
    m = n * edge_factor
    ab = a + b
    a_norm = a / ab if ab > 0 else 0.5
    c_norm = c / (c + d) if (c + d) > 0 else 0.5
    # One output, filled in place: each bit step shifts both columns and
    # ORs in the new bits, drawing twice into one reused float buffer
    # (the same ``rng.random(m)`` stream, so the edges and the generator's
    # final state do not depend on the buffering).
    edges = np.zeros((m, 2), dtype=VERTEX_DTYPE)
    src, dst = edges[:, 0], edges[:, 1]
    draw = np.empty(m, dtype=np.float64)
    r_bit = np.empty(m, dtype=bool)
    c_bit = np.empty(m, dtype=bool)
    top_hit = np.empty(m, dtype=bool)
    for _ in range(scale):
        rng.random(out=draw)
        np.greater(draw, ab, out=r_bit)  # 1 => bottom half (row bit set)
        src <<= 1
        src |= r_bit
        rng.random(out=draw)
        # 1 => right half (col bit set): the draw beats c_norm in the
        # bottom half, a_norm in the top
        np.greater(draw, c_norm, out=c_bit)
        c_bit &= r_bit
        np.greater(draw, a_norm, out=top_hit)
        np.logical_not(r_bit, out=r_bit)
        top_hit &= r_bit
        c_bit |= top_hit
        dst <<= 1
        dst |= c_bit
    return edges


def dedup_undirected_edges(edges: np.ndarray) -> np.ndarray:
    """Canonicalise an edge array: drop self-loops, sort endpoints, dedupe.

    Rows come out as ``(lo, hi)`` with ``lo < hi``, in ascending order.
    """
    edges = np.asarray(edges, dtype=VERTEX_DTYPE)
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    if lo.min() < 0:
        raise ValueError("vertex ids must be non-negative")
    hi = np.maximum(edges[:, 0], edges[:, 1])
    n = int(hi.max()) + 1
    return np.column_stack(np.divmod(sorted_edge_keys(n, lo, hi), n))


def _pair_ids_to_edges(pair_ids: np.ndarray, n: int) -> np.ndarray:
    """Map linear strict-upper-triangle pair ids to ``(u, v)`` with u < v.

    Pairs are enumerated row-major: id 0 is (0,1), id n-2 is (0,n-1),
    id n-1 is (1,2), ...  Inverted ``_WINDOW`` ids at a time.
    """
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    windows = (pair_ids[lo : lo + _WINDOW] for lo in range(0, pair_ids.size, _WINDOW))
    return _edges_of_windows(windows, pair_ids.size, n)


def _edges_of_windows(windows, m: int, n: int) -> np.ndarray:
    """The ``(m, 2)`` edges of ``m`` pair ids arriving in ``windows``."""
    edges = np.empty((m, 2), dtype=VERTEX_DTYPE)
    at = 0
    for ids in windows:
        _invert_pair_ids(ids, n, edges[at : at + ids.size])
        at += ids.size
    return edges


def _invert_pair_ids(pair_ids: np.ndarray, n: int, out: np.ndarray) -> None:
    """Write the ``(u, v)`` of each pair id into the rows of ``out``.

    Closed form (vectorised) via the quadratic formula on the row-start
    offsets, then a one-step correction of the float rounding.
    """
    ids = pair_ids.astype(np.float64)
    nf = float(n)
    # Row u starts at offset S(u) = u*n - u*(u+1)/2.  Solve S(u) <= id.
    u = np.floor((2 * nf - 1 - np.sqrt((2 * nf - 1) ** 2 - 8 * ids)) / 2).astype(np.int64)
    # Guard against floating-point off-by-one at row boundaries.
    row_start = u * n - u * (u + 1) // 2
    too_big = row_start > pair_ids
    u[too_big] -= 1
    row_start = u * n - u * (u + 1) // 2
    too_small = pair_ids - row_start >= (n - 1 - u)
    u[too_small] += 1
    row_start = u * n - u * (u + 1) // 2
    out[:, 0] = u
    out[:, 1] = u + 1 + (pair_ids - row_start)


def lattice_edges(width: int, height: int, *, periodic: bool = False) -> np.ndarray:
    """Edges of a ``width x height`` grid graph (vertex ``y * width + x``).

    A stress workload outside the paper's Poisson model: diameter
    O(width + height), so the level-synchronous loop runs hundreds of
    levels with small frontiers — the opposite regime from the explosive
    random-graph frontier.  ``periodic`` wraps both dimensions (a torus).
    """
    if width < 1 or height < 1:
        raise ValueError(f"lattice dimensions must be positive, got {width}x{height}")
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    ids = (ys * width + xs).ravel()
    edges = []
    right_ok = (xs < width - 1) if not periodic else (np.ones_like(xs, bool) & (width > 1))
    down_ok = (ys < height - 1) if not periodic else (np.ones_like(ys, bool) & (height > 1))
    right = (ys * width + (xs + 1) % width).ravel()
    down = (((ys + 1) % height) * width + xs).ravel()
    edges.append(np.column_stack([ids[right_ok.ravel()], right[right_ok.ravel()]]))
    edges.append(np.column_stack([ids[down_ok.ravel()], down[down_ok.ravel()]]))
    return dedup_undirected_edges(np.concatenate(edges).astype(VERTEX_DTYPE))


def ring_edges(n: int) -> np.ndarray:
    """Edges of an ``n``-cycle — the maximum-diameter connected workload."""
    if n < 2:
        return np.empty((0, 2), dtype=VERTEX_DTYPE)
    ids = np.arange(n, dtype=VERTEX_DTYPE)
    return dedup_undirected_edges(np.column_stack([ids, (ids + 1) % n]))
