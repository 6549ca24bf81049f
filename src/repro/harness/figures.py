"""``FIGURES``: the paper's evaluation as one table.

One entry per figure / table / ablation / extension (the wire codecs, the
sieve, direction switching, faults and chaos): the reference, a status
(*executed* at the design point the claim is about, the paper's experiment
*scaled-down* to virtual-rank size, or the paper's closed forms at paper
scale, *analytic-only*), its design points at two tiers — ``quick`` (seconds;
what ``repro-bfs scorecard`` and tier-1 run) and ``full`` (what
``benchmarks/bench_reproduction.py`` asserts) — a sweep over the shared
runner (:mod:`repro.harness.runner`), the printed columns and the paper's
claims as predicates over the rows.  ``repro-bfs figure | scorecard |
reproduce`` and the asserted bench are views of this table
(:mod:`repro.harness.views`); nothing else writes a design point.

The paper ran on up to 32,768 BlueGene/L nodes; the scaled-down entries
run the same algorithms on virtual ranks and report simulated time, so
shapes are comparable and absolute seconds are not (EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.crossover import crossover_degree, partition_message_gap
from repro.analysis.memory import (
    BLUEGENE_L_NODE_MEMORY,
    MemoryModel,
    fits_in_memory,
    max_vertices_per_rank,
)
from repro.analysis.model import MessageLengthModel, expected_fold_length_1d
from repro.analysis.scaling import log_fit, speedup_curve, sqrt_fit
from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult
from repro.bfs.serial import serial_bfs
from repro.faults import FAULT_PRESETS, FaultReport, FaultSpec
from repro.faults.chaos import run_chaos
from repro.graph.csr import CsrGraph
from repro.graph.distributed_gen import DistributedGraphBuilder
from repro.graph.generators import build_graph
from repro.harness.runner import PAPER_OPTS, Run, draw_pairs, execute, mean_ci, square_grid
from repro.machine.bluegene import bluegene_l_torus_for
from repro.machine.mapping import planar_mapping, row_major_mapping
from repro.partition.two_d import TwoDPartition
from repro.types import GraphSpec, GridShape, SystemSpec
from repro.utils.rng import RngFactory

Rows = list[dict[str, object]]


@dataclass(frozen=True, slots=True)
class Claim:
    """One paper claim: ``check(rows) -> (passed, measured)`` on the tiers it holds on."""

    id: str
    text: str
    check: Callable[[Rows], tuple[bool, str]]
    tiers: tuple[str, ...] = ("full",)


@dataclass(frozen=True, slots=True)
class Figure:
    """One table entry; ``rows(tier)`` regenerates it from ``sweep`` and ``points``."""

    id: str
    source: str
    title: str
    status: str
    points: dict[str, dict]
    sweep: Callable[[dict, int], Rows]
    #: printed columns: (header, row key, format spec)
    columns: tuple[tuple[str, str, str], ...]
    claims: tuple[Claim, ...] = ()

    def rows(self, tier: str, seed: int = 0) -> Rows:
        """Sweep this entry's ``tier`` design points."""
        return self.sweep(self.points[tier], seed)


def _col(rows: Rows, key: str) -> np.ndarray:
    return np.array([row[key] for row in rows])


def _both(points: dict) -> dict[str, dict]:
    return {"quick": points, "full": points}


# ---------------------------------------------------------------------- #
# Figure 4.a — weak scaling
# ---------------------------------------------------------------------- #
def _weak_cell(p: int, vpr: int, k: float, searches: int, seed: int) -> dict:
    """One weak-scaling point.  Each search traverses the whole component
    (the drawn target is discarded), which removes the variance of random
    target distances while keeping the paper's shape: time follows the
    level count, i.e. the O(log n) diameter."""
    spec = GraphSpec(n=vpr * p, k=k, seed=seed)
    pairs = tuple((s, None) for s, _t in draw_pairs(spec, f"fig4a:{p}:{k}", searches))
    run = Run(f"P={p}", spec, square_grid(p), opts=PAPER_OPTS, pairs=pairs)
    return execute(run).row() | {"vpr": vpr}


def _fig4a(pt: dict, seed: int) -> Rows:
    return [_weak_cell(p, pt["vpr"], pt["k"], pt["searches"], seed) for p in pt["p"]]


def _fig4a_degrees(pt: dict, seed: int) -> Rows:
    return [_weak_cell(pt["p"], vpr, k, pt["searches"], seed) for vpr, k in pt["ladder"]]


def _fig4a_p256(pt: dict, seed: int) -> Rows:
    """One more weak-scaling decade on a graph generated cell by cell by the
    distributed generator (its exactness is the ``distgen`` entry)."""
    grid = GridShape(*pt["grid"])
    spec = GraphSpec(n=pt["vpr"] * grid.size, k=pt["k"], seed=seed)
    graph = DistributedGraphBuilder(spec, grid).reference_graph()
    out = execute(Run(f"P={grid.size}", spec, grid, opts=PAPER_OPTS), graph)
    return [out.row() | {"levels": out.results[0].num_levels}]


def _log_p(rows: Rows) -> tuple[bool, str]:
    t = _col(rows, "mean_time_s")
    slope, _b, r2 = log_fit(_col(rows, "p"), t)
    return (slope > 0 and r2 > 0.7 and t[-1] < 20 * t[0],
            f"log2 slope {slope * 1e3:.2f} ms, R^2 {r2:.2f}")


def _log_p_parallel(rows: Rows) -> tuple[bool, str]:
    slope, _b, r2 = log_fit(_col(rows, "p")[1:], _col(rows, "mean_time_s")[1:])
    return slope > 0 and r2 > 0.7, f"log2 slope {slope * 1e3:.2f} ms over P > 1, R^2 {r2:.2f}"


def _sublinear(rows: Rows) -> tuple[bool, str]:
    t = _col(rows, "mean_time_s")
    return t[0] < t[-1] < 30 * t[0], f"time x{t[-1] / t[0]:.1f} from P=1 to P={rows[-1]['p']}"


def _comm_minor(rows: Rows) -> tuple[bool, str]:
    ratios = [r["mean_comm_s"] / r["mean_compute_s"] for r in rows if r["p"] > 1]
    return max(ratios) < 1, f"worst comm/compute {max(ratios):.2f}"


def _denser_faster(rows: Rows) -> tuple[bool, str]:
    by_k = {r["k"]: r["mean_time_s"] for r in rows}
    return (by_k[200.0] < by_k[10.0],
            f"k=200 {by_k[200.0] * 1e3:.2f} ms vs k=10 {by_k[10.0] * 1e3:.2f} ms")


def _continues_curve(rows: Rows) -> tuple[bool, str]:
    # the P=144 point lands near 0.017 s; one more ~2x in P adds roughly one
    # log2 step, so expect < 1.6x, far below the 1.78x of linear-in-P
    t = rows[0]["mean_time_s"]
    return 0.012 < t < 0.028, f"{t * 1e3:.2f} ms at P={rows[0]['p']}"


_TIME_COLUMNS = (
    ("time(s)", "mean_time_s", ".6f"), ("+-95%", "mean_time_s_ci", ".6f"),
    ("comm(s)", "mean_comm_s", ".6f"), ("compute(s)", "mean_compute_s", ".6f"),
)


# ---------------------------------------------------------------------- #
# Figure 4.b — message volume vs search-path length
# ---------------------------------------------------------------------- #
def _fig4b(pt: dict, seed: int) -> Rows:
    """One source, one target at every available BFS distance; the volume is
    the total vertices received during each terminated search."""
    spec = GraphSpec(n=pt["n"], k=pt["k"], seed=seed)
    graph = build_graph(spec)
    rng = RngFactory(seed).named("fig4b")
    source = int(rng.integers(spec.n))
    levels = serial_bfs(graph, source)
    distances = sorted(set(levels[levels > 0].tolist()))
    targets = []
    for distance in distances:
        candidates = np.where(levels == distance)[0]
        targets.append(int(candidates[rng.integers(candidates.size)]))
    run = Run("fig4b", spec, square_grid(pt["p"]), opts=PAPER_OPTS,
              pairs=tuple((source, t) for t in targets))
    return [
        {"n": spec.n, "k": spec.k, "p": pt["p"], "seed": seed, "searches": 1,
         "path_length": d, "volume": int(r.stats.volume_per_level().sum())}
        for d, r in zip(distances, execute(run, graph).results)
    ]


def _explosive_then_flat(rows: Rows) -> tuple[bool, str]:
    v = _col(rows, "volume").astype(float)
    early = v[: max(2, len(v) // 2)]
    return (bool(np.all(np.diff(early) > 0)) and early[-1] > 10 * early[0]
            and v[-1] < 1.5 * v[-2],
            f"early growth x{early[-1] / early[0]:.0f}, last level x{v[-1] / v[-2]:.2f}")


# ---------------------------------------------------------------------- #
# Figure 4.c — bi-directional vs uni-directional
# ---------------------------------------------------------------------- #
def _fig4c(pt: dict, seed: int) -> Rows:
    rows = []
    for p in pt["p"]:
        spec = GraphSpec(n=pt["vpr"] * p, k=pt["k"], seed=seed)
        pairs = tuple(draw_pairs(spec, f"fig4c:{p}", pt["searches"]))
        out = execute(Run(f"P={p}", spec, square_grid(p), opts=PAPER_OPTS, pairs=pairs))
        bi, bi_ci = mean_ci([out.session.bidirectional(s, t).elapsed for s, t in pairs])
        row = out.row()
        rows.append(row | {"bi_s": bi, "bi_s_ci": bi_ci, "bi_over_uni": bi / row["mean_time_s"]})
    return rows


def _bi_wins(rows: Rows) -> tuple[bool, str]:
    ratios = _col(rows, "bi_over_uni")
    return ratios.max() < 1.0, f"bi/uni ratios {', '.join(f'{r:.2f}' for r in ratios)}"


def _bi_substantial(rows: Rows) -> tuple[bool, str]:
    uni = _col(rows, "mean_time_s")
    best = _col(rows, "bi_over_uni").min()
    return best < 0.75 and uni[-1] > uni[0], f"best bi/uni {best:.2f}; uni grows with P"


# ---------------------------------------------------------------------- #
# Figure 5 — strong scaling
# ---------------------------------------------------------------------- #
def _fig5(pt: dict, seed: int) -> Rows:
    spec = GraphSpec(n=pt["n"], k=pt["k"], seed=seed)
    graph = build_graph(spec)
    pairs = tuple(draw_pairs(spec, "fig5", pt["searches"]))
    rows = [
        execute(Run(f"P={p}", spec, square_grid(p), opts=PAPER_OPTS, pairs=pairs), graph).row()
        for p in pt["p"]
    ]
    for row, speedup in zip(rows, speedup_curve(_col(rows, "mean_time_s"))):
        row |= {"speedup": float(speedup), "sqrt_p": row["p"] ** 0.5}
    return rows


def _sqrt_p(rows: Rows, taper: float) -> tuple[bool, str]:
    """sqrt(P) fit over the small-P regime (P <= 64), then far from linear."""
    p, s = _col(rows, "p"), _col(rows, "speedup")
    a, r2 = sqrt_fit(p[p <= 64], s[p <= 64])
    return (a > 0.3 and r2 > 0.6 and s[-1] < taper * p[-1],
            f"speedup({p[-1]}) = {s[-1]:.1f}, sqrt-fit R^2 {r2:.2f}")


def _speedup_monotone(rows: Rows) -> tuple[bool, str]:
    s = _col(rows, "speedup")
    return s[0] < s[1] < s[2], f"speedups {s[0]:.1f} < {s[1]:.1f} < {s[2]:.1f}"


# ---------------------------------------------------------------------- #
# Table 1 — 1D vs 2D processor topologies
# ---------------------------------------------------------------------- #
def _table1(pt: dict, seed: int) -> Rows:
    """Every grid of a block partitions the same graph and runs the same
    pairs; the 1D rows are the degenerate meshes ``P x 1`` and ``1 x P``."""
    grids = [GridShape(*g) for g in pt["grids"]]
    if len({g.size for g in grids}) != 1:
        raise ValueError("all grids in a Table 1 block must have the same P")
    rows = []
    for vpr, k in pt["blocks"]:
        spec = GraphSpec(n=vpr * grids[0].size, k=k, seed=seed)
        graph = build_graph(spec)
        pairs = tuple(draw_pairs(spec, f"table1:{k}", pt["searches"]))
        for grid in grids:
            run = Run(f"{grid.rows}x{grid.cols}", spec, grid, opts=PAPER_OPTS, pairs=pairs)
            rows.append(execute(run, graph).row() | {"vpr": vpr})
    return rows


def _blocks(rows: Rows) -> list[tuple[Rows, Rows]]:
    """Per (|V|/rank, k) block: its (2D rows, 1D rows)."""
    out = []
    for k in dict.fromkeys(r["k"] for r in rows):
        block = [r for r in rows if r["k"] == k]
        one_d = [r for r in block if 1 in (r["rows"], r["cols"])]
        out.append(([r for r in block if r not in one_d], one_d))
    return out


def _comm_1d_exceeds_2d(rows: Rows) -> tuple[bool, str]:
    gaps = [min(_col(one, "mean_comm_s")) / max(_col(two, "mean_comm_s"))
            for two, one in _blocks(rows)]
    return min(gaps) > 1, f"min 1D comm / max 2D comm = {', '.join(f'{g:.2f}' for g in gaps)}"


def _one_phase_each(rows: Rows) -> tuple[bool, str]:
    ok = all(
        (r["fold_msg_len"] == 0.0 and r["expand_msg_len"] > 0.0) if r["cols"] == 1
        else (r["expand_msg_len"] == 0.0 and r["fold_msg_len"] > 0.0)
        for _two, one in _blocks(rows) for r in one
    ) and all(
        r["expand_msg_len"] > 0 and r["fold_msg_len"] > 0
        for two, _one in _blocks(rows) for r in two
    )
    return ok, "P x 1 is expand-only, 1 x P fold-only, 2D meshes use both"


def _2d_wins_dense(rows: Rows) -> tuple[bool, str]:
    two, one = _blocks(rows)[-1]
    best2, best1 = min(_col(two, "mean_time_s")), min(_col(one, "mean_time_s"))
    return (best2 < best1,
            f"k={two[0]['k']:g}: best 2D {best2 * 1e3:.2f} ms vs 1D {best1 * 1e3:.2f} ms")


# ---------------------------------------------------------------------- #
# Figure 6 — per-level volume, 1D vs 2D, and the crossover degree
# ---------------------------------------------------------------------- #
def _partition_volumes(spec: GraphSpec, p: int) -> dict[str, np.ndarray]:
    """Per-level received volume on the square 2D mesh and on ``1 x P``.

    The target is an isolated vertex appended to the graph: unreachable, so
    the search exhausts the component — the paper's worst case for Figure 6.
    """
    base = build_graph(spec)
    graph = CsrGraph(base.n + 1, np.concatenate([base.indptr, base.indptr[-1:]]), base.indices)
    source = int(RngFactory(spec.seed).named(f"fig6:{spec.k}").integers(spec.n))
    return {
        label: execute(
            Run(label, spec, grid, opts=PAPER_OPTS, pairs=((source, base.n),)), graph
        ).results[0].stats.volume_per_level()
        for label, grid in (("2d", square_grid(p)), ("1d", GridShape(1, p)))
    }


def _fig6a(pt: dict, seed: int) -> Rows:
    rows = []
    for k in pt["k"]:
        vol = _partition_volumes(GraphSpec(n=pt["n"], k=k, seed=seed), pt["p"])
        depth = max(len(v) for v in vol.values())
        one, two = (np.pad(vol[key], (0, depth - len(vol[key]))) for key in ("1d", "2d"))
        rows += [
            {"n": pt["n"], "k": k, "p": pt["p"], "seed": seed, "searches": 1, "level": level,
             "volume_1d": int(one[level]), "volume_2d": int(two[level])}
            for level in range(depth)
        ]
    return rows


def _fig6b(pt: dict, seed: int) -> Rows:
    n, p = pt["n"], pt["p"]
    k = crossover_degree(n, p)
    vol = _partition_volumes(GraphSpec(n=n, k=k, seed=seed), p)
    one, two = int(vol["1d"].sum()), int(vol["2d"].sum())
    return [{"n": n, "p": p, "k_star": k, "seed": seed, "searches": 1,
             "gap_below": partition_message_gap(k / 2, n, p),
             "gap_above": partition_message_gap(k * 2, n, p),
             "volume_1d": one, "volume_2d": two, "ratio": one / two}]


def _fig6b_paper(pt: dict, seed: int) -> Rows:
    return [{"n": pt["n"], "p": pt["p"], "k_star": crossover_degree(pt["n"], pt["p"])}]


def _layout_crossover(rows: Rows) -> tuple[bool, str]:
    ks = list(dict.fromkeys(r["k"] for r in rows))
    ratio = {
        k: sum(r["volume_1d"] for r in rows if r["k"] == k)
        / sum(r["volume_2d"] for r in rows if r["k"] == k)
        for k in (ks[0], ks[-1])
    }
    return (ratio[ks[0]] < 1 < ratio[ks[-1]],
            f"k={ks[0]:g}: 1D/2D {ratio[ks[0]]:.2f}; k={ks[-1]:g}: {ratio[ks[-1]]:.2f}")


def _paper_root(rows: Rows) -> tuple[bool, str]:
    n, p, k = (rows[0][key] for key in ("n", "p", "k_star"))
    return 28 <= k <= 37, f"solved k = {k:.2f} at n={f'{n:g}'.replace('e+0', 'e')}, P={p}"


# ---------------------------------------------------------------------- #
# Figure 7 — union-fold redundancy ratio
# ---------------------------------------------------------------------- #
#: the single-ring union-fold: its ring grows with P, which is the paper's
#: own explanation for the declining ratio (the two-phase variant's shorter
#: rings appear in the ``fold`` ablation)
UNION_OPTS = BfsOptions(fold_collective="union-ring")


def _fig7(pt: dict, seed: int) -> Rows:
    rows = []
    for vpr, k in pt["designs"]:
        for p in pt["p"]:
            spec = GraphSpec(n=vpr * p, k=k, seed=seed)
            source = int(RngFactory(seed).named(f"fig7:{p}:{k}").integers(spec.n))
            run = Run(f"P={p}", spec, square_grid(p), opts=UNION_OPTS, pairs=((source, None),))
            row = execute(run).row()
            rows.append(row | {"vpr": vpr, "redundancy_pct": 100.0 * row["redundancy"]})
    return rows


def _sparse_dense(rows: Rows) -> tuple[np.ndarray, np.ndarray, float, float]:
    ks = sorted({r["k"] for r in rows})
    low, high = (_col([r for r in rows if r["k"] == k], "redundancy_pct") for k in (ks[0], ks[-1]))
    return low, high, ks[0], ks[-1]


def _redundancy_quick(rows: Rows) -> tuple[bool, str]:
    low, high, k_low, k_high = _sparse_dense(rows)
    return (high[0] > low[0] and high[-1] < high[0],
            f"k={k_high:g}: {high[0]:.1f}% -> {high[-1]:.1f}%; k={k_low:g}: {low[0]:.1f}%")


def _redundancy_dense_higher(rows: Rows) -> tuple[bool, str]:
    low, high, _k_low, k_high = _sparse_dense(rows)
    return (bool((high > low).all()) and high.max() > 20.0,
            f"k={k_high:g} peaks at {high.max():.1f}%")


def _redundancy_declines(rows: Rows) -> tuple[bool, str]:
    low, high, _k_low, _k_high = _sparse_dense(rows)
    return (high[-1] < high[0] and low[-1] < low[0],
            f"dense {high[0]:.1f}% -> {high[-1]:.1f}%, sparse {low[0]:.1f}% -> {low[-1]:.1f}%")


# ---------------------------------------------------------------------- #
# Section 3.1 bounds and Section 2.4 memory — analytic, at paper scale
# ---------------------------------------------------------------------- #
#: the (|V|/rank, k) design points of the paper's weak-scaling runs
PAPER_DESIGNS = [(100_000, 10.0), (20_000, 50.0), (10_000, 100.0), (5_000, 200.0)]
#: the paper's P = 32768 mesh
PAPER_GRID = (128, 256)


def _bounds(pt: dict, seed: int) -> Rows:
    """Every design at the paper's mesh, then the first design on smaller
    meshes with |V|/rank fixed (the O(n/P) scalability rows)."""
    meshes = [(pt["grid"], design) for design in pt["designs"]]
    meshes += [(mesh, pt["designs"][0]) for mesh in pt["scaling"]]
    rows = []
    for (r, c), (vpr, k) in meshes:
        model = MessageLengthModel(n=vpr * r * c, k=k, rows=r, cols=c)
        rows.append({
            "grid": f"{r}x{c}", "vpr": vpr, "k": k, "fold_1d": model.fold_1d,
            "expand_2d": model.expand_2d, "fold_2d": model.fold_2d,
            "expand_2d_dense": model.expand_2d_dense,
            "per_processor_bound": model.per_processor_bound,
        })
    return rows


def _bounds_sim(pt: dict, seed: int) -> Rows:
    spec, p = pt["graph"], pt["p"]
    out = execute(Run("1d", spec, GridShape(p, 1), system="bluegene-1d"))
    measured = float(out.results[0].stats.volume_per_level("fold").sum())
    predicted = expected_fold_length_1d(spec.n, spec.k, p) * p
    return [out.row() | {"measured": measured, "predicted": predicted,
                         "ratio": measured / predicted}]


def _memory(pt: dict, seed: int) -> Rows:
    grid = GridShape(*pt["grid"])
    rows = []
    for vpr, k in pt["designs"]:
        model = MemoryModel(n=vpr * grid.size, k=k, grid=grid)
        rows.append({
            "vpr": vpr, "k": k, "total_mb": model.total_bytes / 2**20,
            "edges_mb": model.edge_bytes / 2**20, "indices_mb": model.index_bytes / 2**20,
            "buffers_mb": model.buffer_bytes / 2**20, "fits": fits_in_memory(model),
            "max_vpr": max_vertices_per_rank(k, grid),
        })
    return rows


def _sparse_beats_dense(rows: Rows) -> tuple[bool, str]:
    worst = max(r["expand_2d"] / r["expand_2d_dense"] for r in rows)
    return worst <= 1, f"worst sparse/dense expand {worst:.2f}"


def _bound_scales(rows: Rows) -> tuple[bool, str]:
    same = [r for r in rows if (r["vpr"], r["k"]) == (rows[0]["vpr"], rows[0]["k"])]
    lengths = _col(same, "expand_2d") + _col(same, "fold_2d")
    return (lengths.max() < 2.5 * lengths.min(),
            f"expand+fold x{lengths.max() / lengths.min():.2f} over {len(same)} meshes")


_NODE_MB = BLUEGENE_L_NODE_MEMORY / 2**20


# ---------------------------------------------------------------------- #
# Ablations and substrate checks: one graph, one axis varied, source 0
# ---------------------------------------------------------------------- #
def _variants(pt: dict, variants: list[tuple[str, dict]], counters: bool = False) -> Rows:
    """One row per ``(name, Run overrides)``; ``same_levels`` compares each
    variant's level array with the first one's, and ``counters`` adds
    :func:`_counters`' columns."""
    spec, grid = pt["graph"], GridShape(*pt["grid"])
    graph = build_graph(spec)
    rows, reference = [], None
    for name, overrides in variants:
        out = execute(Run(name, spec, **({"grid": grid} | overrides)), graph)
        result = out.results[0]
        reference = result.levels if reference is None else reference
        rows.append(out.row() | {
            "messages": result.stats.total_messages,
            "wire_vertices": result.stats.total_processed,
            "fold_volume": int(result.stats.volume_per_level("fold").sum()),
            "same_levels": bool(np.array_equal(result.levels, reference)),
        } | (_counters(result) if counters else {}))
    return rows


def _collectives(pt: dict, seed: int) -> Rows:
    return _variants(pt, [(name, {"opts": BfsOptions(**{pt["axis"]: name})})
                          for name in pt["names"]])


def _platform(pt: dict, seed: int) -> Rows:
    return _variants(pt, [(m, {"opts": PAPER_OPTS, "system": SystemSpec(machine=m)})
                          for m in ("bluegene", "mcr")])


def _mapping(pt: dict, seed: int) -> Rows:
    rows = _variants(pt, [(m, {"opts": PAPER_OPTS, "system": SystemSpec(mapping=m)})
                          for m in ("planar", "row-major")])
    grid = GridShape(*pt["grid"])
    torus = bluegene_l_torus_for(grid.size)
    for row, build in zip(rows, (planar_mapping, row_major_mapping)):
        placed = build(grid, torus)
        row |= {"expand_ring_hops": placed.column_ring_hops(),
                "fold_ring_hops": placed.row_ring_hops()}
    return rows


def _sent_cache(pt: dict, seed: int) -> Rows:
    """The cache is per rank, so its power depends on the layout: under 1D
    every rediscovery is local; under 2D another rank of the processor-row
    can rediscover the vertex, so the cut is partial.  The direct fold
    isolates the cache (the union-fold would dedupe the same redundancy)."""
    p = GridShape(*pt["grid"]).size
    cells = (("2d", {}), ("1d", {"grid": GridShape(p, 1), "system": "bluegene-1d"}))
    return _variants(pt, [
        (f"{layout} {'on' if cached else 'off'}",
         cell | {"opts": BfsOptions(use_sent_cache=cached, fold_collective="direct")})
        for layout, cell in cells for cached in (True, False)
    ])


def _buffers(pt: dict, seed: int) -> Rows:
    return _variants(pt, [
        ("unbounded" if cap is None else str(cap), {"opts": BfsOptions(buffer_capacity=cap)})
        for cap in (None, 4096, 256, 32)
    ])


def _distgen(pt: dict, seed: int) -> Rows:
    """Per-rank generation against centrally partitioning the same graph."""
    grid = GridShape(*pt["grid"])
    builder = DistributedGraphBuilder(pt["graph"], grid)
    built = builder.build_partition()
    central = TwoDPartition(builder.reference_graph(), grid)
    exact = all(
        np.array_equal(getattr(central, name), getattr(built, name))
        for name in ("entry_bounds", "rows", "col_keys")
    )
    entries = built.memory_footprints()["edge_entries"]
    cells = [len(builder.cells_for_rank(rank)) for rank in range(grid.size)]
    return [{"n": pt["graph"].n, "p": grid.size, "seed": pt["graph"].seed,
             "total_entries": int(entries.sum()), "entries_mean": float(entries.mean()),
             "entries_max": int(entries.max()), "cells_min": min(cells),
             "cells_max": max(cells), "cells_bound": 2 * grid.size, "exact": exact}]


def _same_levels(rows: Rows) -> tuple[bool, str]:
    return all(r["same_levels"] for r in rows), f"{len(rows)} variants, identical level arrays"


def _named(rows: Rows, key: str) -> dict[str, object]:
    return {r["name"]: r[key] for r in rows}


def _fold_shapes(rows: Rows) -> tuple[bool, str]:
    wire, msgs = _named(rows, "wire_vertices"), _named(rows, "messages")
    return (wire["union-ring"] < wire["ring"] and msgs["two-phase"] < msgs["ring"]
            and msgs["bruck"] < msgs["ring"],
            f"union cuts ring volume {100 * (1 - wire['union-ring'] / wire['ring']):.0f}%; "
            f"messages bruck {msgs['bruck']}, two-phase {msgs['two-phase']}, ring {msgs['ring']}")


def _filtered_expand(rows: Rows) -> tuple[bool, str]:
    wire = _named(rows, "wire_vertices")
    return (wire["direct"] <= wire["ring"],
            f"direct {wire['direct']} vs ring {wire['ring']} vertices")


def _mcr_faster_cores(rows: Rows) -> tuple[bool, str]:
    compute, msgs = _named(rows, "mean_compute_s"), _named(rows, "messages")
    return (compute["mcr"] < compute["bluegene"] and msgs["mcr"] == msgs["bluegene"],
            f"compute x{compute['bluegene'] / compute['mcr']:.1f} faster, "
            f"same {msgs['mcr']} messages")


def _planar_tighter(rows: Rows) -> tuple[bool, str]:
    hops = {r["name"]: r["expand_ring_hops"] + r["fold_ring_hops"] for r in rows}
    comm = _named(rows, "mean_comm_s")
    # hop terms are small next to bandwidth, so demand only "not worse"
    return (hops["planar"] <= hops["row-major"] and comm["planar"] <= 1.05 * comm["row-major"],
            f"ring hops {hops['planar']:.0f} vs {hops['row-major']:.0f}; "
            f"comm {comm['planar'] * 1e3:.3f} vs {comm['row-major'] * 1e3:.3f} ms")


def _cache_cuts_fold(rows: Rows) -> tuple[bool, str]:
    fold = _named(rows, "fold_volume")
    return (fold["1d on"] < fold["1d off"] and fold["2d on"] < 0.75 * fold["2d off"],
            f"2D fold volume {fold['2d off']} -> {fold['2d on']}, "
            f"1D {fold['1d off']} -> {fold['1d on']}")


def _caps_cost_latency_only(rows: Rows) -> tuple[bool, str]:
    msgs, time = _named(rows, "messages"), _named(rows, "mean_time_s")
    return (msgs["32"] > msgs["unbounded"] and time["32"] < 5 * time["unbounded"],
            f"cap 32: messages {msgs['unbounded']} -> {msgs['32']}, "
            f"time x{time['32'] / time['unbounded']:.2f}")


_ABLATION_COLUMNS = (
    ("time(s)", "mean_time_s", ".6f"), ("comm(s)", "mean_comm_s", ".6f"),
    ("messages", "messages", ""), ("wire vertices", "wire_vertices", ""),
    ("same levels", "same_levels", ""),
)


def _ablation_points(quick: tuple[GraphSpec, tuple], full: tuple[GraphSpec, tuple], **extra):
    return {tier: {"graph": graph, "grid": grid, **extra}
            for tier, (graph, grid) in (("quick", quick), ("full", full))}


_COLLECTIVE_POINTS = (
    (GraphSpec(n=4_000, k=12, seed=6), (4, 4)), (GraphSpec(n=16_000, k=12, seed=6), (8, 8)),
)
_CACHE_POINTS = (
    # dense enough to rediscover a lot
    (GraphSpec(n=1_800, k=40, seed=9), (3, 3)), (GraphSpec(n=7_200, k=40, seed=9), (6, 6)),
)


# ---------------------------------------------------------------------- #
# Extensions beyond the paper: wire codecs and the sieve (arXiv:1208.5542),
# direction switching (arXiv:1705.04590), faults and chaos (DESIGN §7)
# ---------------------------------------------------------------------- #
#: every wire codec, the identity first
WIRES = ("raw", "delta-varint", "bitmap", "adaptive")
DIRECTIONS = ("top-down", "hybrid", "bottom-up")
#: the chaos counters every case reports, recovered or not
_CHAOS_COUNTERS = (
    "injected", "crashes", "failovers", "replayed_levels", "rollbacks", "checkpoint_bytes",
)


def _counters(result: BfsResult) -> dict[str, object]:
    """Whole-run counters of one search: levels, bytes by phase, the sieve, faults."""
    stats, faults = result.stats, result.faults or FaultReport()
    return {
        "levels": result.num_levels, "raw_bytes": stats.total_bytes,
        "fold_bytes": stats.encoded_bytes_by_phase.get("fold", 0),
        "summary_bytes": stats.encoded_bytes_by_phase.get("sieve", 0),
        "sieved": stats.total_sieved, "injected": faults.injected, "retries": faults.retries,
        "rollbacks": faults.rollbacks, "spare_failovers": faults.spare_failovers,
        "shrink_failovers": faults.shrink_failovers,
    }


def _compression(pt: dict, seed: int) -> Rows:
    """Every codec per average degree: density drives the frontier through
    gamma saturation (Section 3.1), which is what the bitmap prices."""
    return [
        row for k in pt["k"]
        for row in _variants(
            {"graph": GraphSpec(n=pt["n"], k=k, seed=pt["seed"]), "grid": pt["grid"]},
            [(wire, {"system": SystemSpec(wire=wire)}) for wire in WIRES], counters=True,
        )
    ]


def _sieve(pt: dict, seed: int) -> Rows:
    """Every codec with the sieve off, then on, per workload."""
    return [
        row | {"workload": name}
        for name, n, k, grid in pt["workloads"]
        for row in _variants(
            {"graph": GraphSpec(n=n, k=k, seed=pt["seed"]), "grid": grid},
            [(f"{wire} {'on' if on else 'off'}", {"system": SystemSpec(wire=wire, sieve=on)})
             for wire in WIRES for on in (False, True)],
            counters=True,
        )
    ]


def _direction(pt: dict, seed: int) -> Rows:
    """Three directions per graph and layout; ``same_levels`` is against top-down."""
    (n, k), (scale, edge_factor) = pt["poisson"], pt["rmat"]
    specs = (GraphSpec(n=n, k=k, seed=pt["seed"]),
             GraphSpec.rmat(scale, edge_factor=edge_factor, seed=pt["seed"]))
    return [
        row | {"graph": f"{spec.kind}-{layout}"}
        for spec in specs for layout, grid in pt["layouts"].items()
        for row in _variants(
            {"graph": spec, "grid": grid},
            [(d, {"opts": BfsOptions(direction=d), "system": SystemSpec(layout=layout)})
             for d in DIRECTIONS],
            counters=True,
        )
    ]


def _faults(pt: dict, seed: int) -> Rows:
    """The fault-free search, then one row per fault schedule with its
    overhead over the fault-free time."""
    specs = [("fault-free", None)]
    specs += [(f"drop={rate}", FaultSpec(seed=11, drop_rate=rate, max_retries=4))
              for rate in pt["drops"]]
    specs += [(name, replace(FAULT_PRESETS[name], seed=0)) for name in pt["crashes"]]
    specs += [(f"straggler x{slow}",
               FaultSpec(seed=5, straggler_rate=0.25, straggler_slowdown=slow))
              for slow in pt["stragglers"]]
    rows = _variants(pt, [(name, {"system": SystemSpec(faults=spec)}) for name, spec in specs],
                     counters=True)
    base = rows[0]["mean_time_s"]
    return [
        row | {"drop_rate": spec.drop_rate if spec else 0.0,
               "crash_rate": spec.crash_rate if spec else 0.0,
               "overhead": (row["mean_time_s"] - base) / base}
        for row, (_name, spec) in zip(rows, specs)
    ]


def _chaos(pt: dict, seed: int) -> Rows:
    """One row per sampled schedule (:func:`~repro.faults.chaos.run_chaos`)."""
    spec, grid = pt["graph"], GridShape(*pt["grid"])
    report = run_chaos(build_graph(spec), grid, 0, range(pt["seeds"]))
    return [
        {"n": spec.n, "k": spec.k, "seed": spec.seed, "p": grid.size, "searches": 1,
         "schedule": case.seed, "outcome": case.outcome, "problems": len(case.problems)}
        | {key: getattr(case, key) for key in _CHAOS_COUNTERS}
        for case in report.cases
    ]


def _cells(rows: Rows, *keys: str) -> dict[tuple, dict]:
    return {tuple(row[key] for key in keys): row for row in rows}


def _raw_identity(rows: Rows) -> tuple[bool, str]:
    raw = [r for r in rows if r["name"] == "raw"]
    return (all(r["wire_bytes"] == r["raw_bytes"] and r["compression"] == 1.0 for r in raw),
            f"{len(raw)} raw runs ship exactly their payload bytes")


def _codecs_compress(rows: Rows) -> tuple[bool, str]:
    raw = {r["k"]: r["wire_bytes"] for r in rows if r["name"] == "raw"}
    cut = min(raw[r["k"]] / r["wire_bytes"] for r in rows if r["name"] != "raw")
    return cut > 1, f"smallest cut x{cut:.1f}"


def _adaptive_tracks_best(rows: Rows) -> tuple[bool, str]:
    cell = _cells(rows, "k", "name")
    slack = max(
        cell[k, "adaptive"]["wire_bytes"] - cell[k, "adaptive"]["messages"]
        - min(cell[k, "delta-varint"]["wire_bytes"], cell[k, "bitmap"]["wire_bytes"])
        for k in dict.fromkeys(r["k"] for r in rows)
    )
    return slack <= 0, f"worst adaptive - best fixed - one tag byte a message: {slack:.0f} B"


def _bitmap_margin_grows(rows: Rows) -> tuple[bool, str]:
    cell = _cells(rows, "k", "name")
    lo, hi = rows[0]["k"], rows[-1]["k"]
    margin = {k: cell[k, "delta-varint"]["wire_bytes"] / cell[k, "bitmap"]["wire_bytes"]
              for k in (lo, hi)}
    return (margin[hi] > margin[lo] > 1.0,
            f"varint/bitmap x{margin[lo]:.2f} at k={lo:g}, x{margin[hi]:.2f} at k={hi:g}")


def _ratio_grows(rows: Rows) -> tuple[bool, str]:
    ratio = _col([r for r in rows if r["name"] == "adaptive"], "compression")
    return ratio[-1] > ratio[0], f"adaptive x{ratio[0]:.1f} -> x{ratio[-1]:.1f}"


def _fold_cut(rows: Rows, wire: str) -> float:
    cell = _cells(rows, "workload", "name")
    off, on = (cell["reference", f"{wire} {state}"]["fold_bytes"] for state in ("off", "on"))
    return (off - on) / max(1, off)


def _sieve_cuts_fold(rows: Rows) -> tuple[bool, str]:
    cuts = {wire: _fold_cut(rows, wire) for wire in ("raw", "delta-varint", "adaptive")}
    return (min(cuts.values()) >= 0.25,
            ", ".join(f"{wire} -{cut:.1%}" for wire, cut in cuts.items()))


def _sieve_cuts_bitmap(rows: Rows) -> tuple[bool, str]:
    cut = _fold_cut(rows, "bitmap")
    return cut > 0, f"bitmap -{cut:.1%}"


def _sieve_fired(rows: Rows) -> tuple[bool, str]:
    sieved = [r["sieved"] for r in rows if r["sieve"]]
    return min(sieved) > 0, f"fewest sieved vertices in a run: {min(sieved)}"


def _sieve_harmless(rows: Rows) -> tuple[bool, str]:
    workloads = {r["workload"] for r in rows}
    depths = {(r["workload"], r["levels"]) for r in rows}
    return (all(r["same_levels"] for r in rows) and len(depths) == len(workloads),
            f"{len(rows)} runs, one level array and level count per workload")


def _edge_cut(rows: Rows, graph: str) -> float:
    """Top-down over hybrid traversed edges on ``graph`` (kind-layout)."""
    edges = {r["name"]: r["edges_scanned"] for r in rows if r["graph"] == graph}
    return edges["top-down"] / max(1, edges["hybrid"])


def _rmat_cut(rows: Rows) -> tuple[bool, str]:
    cuts = {graph: _edge_cut(rows, graph) for graph in ("rmat-1d", "rmat-2d")}
    return (min(cuts.values()) >= 2.0,
            ", ".join(f"{graph} x{cut:.1f}" for graph, cut in cuts.items()))


def _poisson_bounded(rows: Rows) -> tuple[bool, str]:
    cut = _edge_cut(rows, "poisson-2d")
    return cut > 0.5, f"top-down/hybrid edges x{cut:.2f}"


def _rmat_switched(rows: Rows) -> tuple[bool, str]:
    hybrid = [r["bottom_up_levels"] for r in rows if (r["kind"], r["name"]) == ("rmat", "hybrid")]
    return min(hybrid) > 0, f"bottom-up levels {hybrid}"


def _prefixed(rows: Rows, prefix: str) -> Rows:
    return [r for r in rows if r["name"].startswith(prefix)]


def _empty_schedule_free(rows: Rows) -> tuple[bool, str]:
    zero = {r["name"]: r for r in rows}["drop=0.0"]
    return (zero["overhead"] == 0.0 and zero["injected"] == 0,
            f"overhead {zero['overhead']:.0%}, {zero['injected']} injected")


def _faults_recover(rows: Rows) -> tuple[bool, str]:
    costly = [r for r in rows if r["name"] not in ("fault-free", "drop=0.0")]
    cheapest = min(_col(costly, "overhead"))
    return (all(r["same_levels"] for r in rows) and cheapest > 0,
            f"{len(costly)} faulted runs keep the levels, cheapest +{cheapest:.2%}")


def _drops_graceful(rows: Rows) -> tuple[bool, str]:
    drops = _col(_prefixed(rows, "drop="), "overhead")
    return (drops[-1] == drops.max() and drops[-1] < 2.0,
            f"harshest drop rate +{drops[-1]:.1%}")


def _stragglers_ordered(rows: Rows) -> tuple[bool, str]:
    mild, harsh = _col(_prefixed(rows, "straggler"), "overhead")
    return harsh > mild > 0, f"+{mild:.1%} mild, +{harsh:.1%} harsh"


def _crashes_recovered(rows: Rows) -> tuple[bool, str]:
    crashes = _prefixed(rows, "crash-")
    return (all(r["crashes"] > 0 and r["failovers"] == r["crashes"] and r["replayed_levels"] > 0
                and r["checkpoint_bytes"] > 0 for r in crashes),
            ", ".join(f"{r['name']}: {r['crashes']} crashes, {r['replayed_levels']} replays"
                      for r in crashes))


def _crashes_graceful(rows: Rows) -> tuple[bool, str]:
    crashes = _prefixed(rows, "crash-")
    cost = _named(crashes, "overhead")
    return (cost["crash-harsh"] == max(cost.values()) and max(cost.values()) < 8.0,
            f"crash-harsh +{cost['crash-harsh']:.0%}")


def _no_invalid(rows: Rows) -> tuple[bool, str]:
    outcomes = list(_col(rows, "outcome"))
    return ("invalid" not in outcomes,
            ", ".join(f"{outcomes.count(o)} {o}" for o in ("ok", "unrecoverable", "invalid")))


# ---------------------------------------------------------------------- #
# the table
# ---------------------------------------------------------------------- #
FIGURES: dict[str, Figure] = {fig.id: fig for fig in (
    Figure(
        "fig4a", "Fig 4.a", "weak scaling: mean search time vs P", "scaled-down",
        {"quick": dict(p=[1, 4, 16, 64], vpr=500, k=10.0, searches=2),
         "full": dict(p=[1, 4, 16, 64, 144], vpr=1000, k=10.0, searches=2)},
        _fig4a, (("P", "p", ""), ("n", "n", "")) + _TIME_COLUMNS,
        (Claim("fig4a.log-p", "weak-scaling time grows ~ log P", _log_p, ("quick",)),
         Claim("fig4a.comm-minor", "communication small next to computation", _comm_minor,
               ("quick", "full")),
         Claim("fig4a.sublinear", "time grows with P, far slower than linearly", _sublinear),
         Claim("fig4a.log-fit", "log2 fit over P > 1 has positive slope, R^2 > 0.7",
               _log_p_parallel)),
    ),
    Figure(
        "fig4a-degrees", "Fig 4.a", "degree ladder at fixed P (same n*k per rank)",
        "scaled-down",
        {"quick": dict(p=16, searches=2,
                       ladder=[(500, 10.0), (100, 50.0), (50, 100.0), (25, 200.0)]),
         "full": dict(p=16, searches=2,
                      ladder=[(1000, 10.0), (200, 50.0), (100, 100.0), (50, 200.0)])},
        _fig4a_degrees, (("k", "k", "g"), ("|V|/rank", "vpr", "")) + _TIME_COLUMNS,
        (Claim("fig4a-degrees.denser-faster",
               "higher average degree gives shorter searches", _denser_faster),),
    ),
    Figure(
        "fig4a-p256", "Fig 4.a", "one more decade on a distributed-generator graph",
        "scaled-down",
        {"quick": dict(grid=(4, 4), vpr=500, k=10.0),
         "full": dict(grid=(16, 16), vpr=1000, k=10.0)},
        _fig4a_p256, (("P", "p", ""), ("n", "n", "")) + _TIME_COLUMNS + (("levels", "levels", ""),),
        (Claim("fig4a-p256.continues", "P = 256 continues the log-P curve", _continues_curve),
         Claim("fig4a-p256.comm-minor", "communication small next to computation",
               _comm_minor)),
    ),
    Figure(
        "fig4b", "Fig 4.b", "total message volume vs search-path length", "scaled-down",
        {"quick": dict(n=30_000, k=10.0, p=16), "full": dict(n=120_000, k=10.0, p=16)},
        _fig4b, (("path length", "path_length", ""), ("volume (vertices)", "volume", "")),
        (Claim("fig4b.explosive-then-flat",
               "volume grows explosively with path length, then flattens at the diameter",
               _explosive_then_flat),),
    ),
    Figure(
        "fig4c", "Fig 4.c", "bi-directional vs uni-directional search", "scaled-down",
        {"quick": dict(p=[4, 16], vpr=400, k=10.0, searches=3),
         "full": dict(p=[4, 16, 64], vpr=500, k=10.0, searches=4)},
        _fig4c,
        (("P", "p", ""), ("uni(s)", "mean_time_s", ".6f"), ("+-95%", "mean_time_s_ci", ".6f"),
         ("bi(s)", "bi_s", ".6f"), ("+-95%", "bi_s_ci", ".6f"), ("bi/uni", "bi_over_uni", ".2f")),
        (Claim("fig4c.bi-wins", "bi-directional beats uni-directional", _bi_wins,
               ("quick", "full")),
         Claim("fig4c.substantial", "the saving is substantial and both curves grow with P",
               _bi_substantial)),
    ),
    Figure(
        "fig5", "Fig 5", "strong scaling: speedup vs P", "scaled-down",
        {"quick": dict(n=16_000, k=10.0, p=[1, 4, 16, 64], searches=2),
         "full": dict(n=48_000, k=10.0, p=[1, 4, 16, 36, 64, 144], searches=2)},
        _fig5,
        (("P", "p", ""), ("time(s)", "mean_time_s", ".6f"), ("+-95%", "mean_time_s_ci", ".6f"),
         ("speedup", "speedup", ".2f"), ("sqrt(P)", "sqrt_p", ".2f")),
        (Claim("fig5.sqrt-p", "strong-scaling speedup ~ sqrt(P), tapering",
               lambda rows: _sqrt_p(rows, 0.6), ("quick",)),
         Claim("fig5.monotone", "parallelism helps over the small-P regime", _speedup_monotone),
         Claim("fig5.sqrt-fit", "sqrt(P) fit over P <= 64, under half of linear at the largest P",
               lambda rows: _sqrt_p(rows, 0.5))),
    ),
    Figure(
        "table1", "Table 1", "1D vs 2D processor topologies", "scaled-down",
        {"quick": dict(grids=[(4, 8), (8, 4), (32, 1), (1, 32)], searches=2,
                       blocks=[(300, 10.0), (30, 100.0)]),
         "full": dict(grids=[(8, 16), (16, 8), (128, 1), (1, 128)], searches=2,
                      blocks=[(500, 10.0), (50, 100.0)])},
        _table1,
        (("R x C", "name", ""), ("|V|/rank", "vpr", ""), ("k", "k", "g"),
         ("exec(s)", "mean_time_s", ".6f"), ("+-95%", "mean_time_s_ci", ".6f"),
         ("comm(s)", "mean_comm_s", ".6f"), ("expand len", "expand_msg_len", ".1f"),
         ("fold len", "fold_msg_len", ".1f")),
        (Claim("table1.comm-1d-exceeds-2d", "1D communication time exceeds 2D",
               _comm_1d_exceeds_2d),
         Claim("table1.one-phase-each", "degenerate meshes put all traffic in one phase",
               _one_phase_each),
         Claim("table1.2d-wins-dense", "2D beats 1D on total time for the high-degree graph",
               _2d_wins_dense)),
    ),
    Figure(
        "fig6a", "Fig 6.a", "per-level message volume, 1D vs 2D, unreachable target",
        "scaled-down",
        {"quick": dict(n=20_000, p=16, k=[5.0, 50.0]),
         "full": dict(n=40_000, p=100, k=[10.0, 50.0])},
        _fig6a,
        (("level", "level", ""), ("k", "k", "g"), ("1d volume", "volume_1d", ""),
         ("2d volume", "volume_2d", "")),
        (Claim("fig6a.layout-crossover", "1D wins at low degree, 2D at high degree",
               _layout_crossover, ("quick", "full")),),
    ),
    Figure(
        "fig6b", "Fig 6.b", "both layouts at the analytic crossover degree", "scaled-down",
        {"quick": dict(n=20_000, p=16), "full": dict(n=40_000, p=100)},
        _fig6b,
        (("n", "n", ""), ("P", "p", ""), ("k*", "k_star", ".2f"), ("1d volume", "volume_1d", ""),
         ("2d volume", "volume_2d", ""), ("1d/2d", "ratio", ".2f")),
        (Claim("fig6b.brackets", "analytic crossover brackets correctly",
               lambda rows: (rows[0]["gap_below"] < 0 < rows[0]["gap_above"],
                             f"k* = {rows[0]['k_star']:.1f}"), ("quick",)),
         Claim("fig6b.between", "the crossover lies between the two Figure 6.a degrees",
               lambda rows: (10.0 < rows[0]["k_star"] < 50.0, f"k* = {rows[0]['k_star']:.1f}")),
         Claim("fig6b.near-identical", "at the crossover the layouts move nearly the same volume",
               lambda rows: (0.7 < rows[0]["ratio"] < 1.3, f"1D/2D {rows[0]['ratio']:.2f}"))),
    ),
    Figure(
        "fig6b-paper", "Fig 6.b", "the crossover equation at the paper's own (n, P)",
        "analytic-only", _both(dict(n=4e7, p=400)), _fig6b_paper,
        (("n", "n", "g"), ("P", "p", ""), ("k*", "k_star", ".3f")),
        (Claim("fig6b-paper.root", "paper-scale crossover near the reported k = 34",
               _paper_root, ("quick", "full")),),
    ),
    Figure(
        "fig7", "Fig 7", "union-fold redundancy ratio vs P", "scaled-down",
        {"quick": dict(p=[9, 36], designs=[(400, 10.0), (60, 60.0)]),
         "full": dict(p=[9, 36, 144], designs=[(500, 10.0), (50, 100.0)])},
        _fig7,
        (("P", "p", ""), ("|V|/rank", "vpr", ""), ("k", "k", "g"),
         ("redundancy %", "redundancy_pct", ".1f")),
        (Claim("fig7.redundancy", "union-fold removes more on denser graphs, declines with P",
               _redundancy_quick, ("quick",)),
         Claim("fig7.dense-higher", "the high-degree graph eliminates a larger, substantial share",
               _redundancy_dense_higher),
         Claim("fig7.declines", "the ratio declines as P grows", _redundancy_declines)),
    ),
    Figure(
        "bounds", "§3.1", "expected per-processor message lengths at paper scale",
        "analytic-only",
        _both(dict(designs=PAPER_DESIGNS, grid=PAPER_GRID, scaling=[(32, 32), (64, 64)])),
        _bounds,
        (("mesh", "grid", ""), ("|V|/rank", "vpr", ""), ("k", "k", "g"),
         ("1D fold", "fold_1d", ".0f"), ("2D expand", "expand_2d", ".0f"),
         ("2D fold", "fold_2d", ".0f"), ("2D dense expand", "expand_2d_dense", ".0f"),
         ("n/P", "per_processor_bound", ".0f")),
        (Claim("bounds.sparse-beats-dense", "the sparse expand never exceeds the dense all-gather",
               _sparse_beats_dense),
         Claim("bounds.scales", "growing P with n/P fixed does not grow the bound", _bound_scales)),
    ),
    Figure(
        "bounds-sim", "§3.1", "gamma model vs simulated total 1D fold volume", "executed",
        _both(dict(graph=GraphSpec(n=6000, k=8.0, seed=4), p=8)), _bounds_sim,
        (("n", "n", ""), ("k", "k", "g"), ("P", "p", ""), ("measured", "measured", ".0f"),
         ("model bound", "predicted", ".0f"), ("ratio", "ratio", ".2f")),
        (Claim("bounds-sim.obeys-model", "simulated fold traffic obeys the gamma model",
               lambda rows: (0.2 <= rows[0]["ratio"] <= 1.25,
                             f"measured/model {rows[0]['ratio']:.2f}")),),
    ),
    Figure(
        "memory", "abstract / §2.4", "per-rank memory at P = 32768 and the capacity frontier",
        "analytic-only", _both(dict(designs=PAPER_DESIGNS, grid=PAPER_GRID)), _memory,
        (("|V|/rank", "vpr", ""), ("k", "k", "g"), ("total MB", "total_mb", ".1f"),
         ("edges MB", "edges_mb", ".1f"), ("indices MB", "indices_mb", ".1f"),
         ("buffers MB", "buffers_mb", ".1f"), ("fits", "fits", ""),
         ("max |V|/rank", "max_vpr", "")),
        (Claim("memory.headline", "3.2B vertices fit 32768 x 512 MB nodes",
               lambda rows: (rows[0]["fits"],
                             f"{rows[0]['total_mb']:.1f} MB/rank of {_NODE_MB:.0f} MB"),
               ("quick",)),
         Claim("memory.all-fit", "every design point the paper ran fits, the headline under 25 %",
               lambda rows: (all(r["fits"] for r in rows)
                             and rows[0]["total_mb"] < 0.25 * _NODE_MB,
                             f"headline uses {rows[0]['total_mb'] / _NODE_MB:.0%} of a node")),
         Claim("memory.frontier", "the node admits the paper's 100000 |V|/rank, and not 100x more",
               lambda rows: (100_000 <= rows[0]["max_vpr"] <= 10_000_000,
                             f"max |V|/rank = {rows[0]['max_vpr']} at k=10"))),
    ),
    Figure(
        "platform", "§4.1", "BlueGene/L torus vs MCR flat cluster", "scaled-down",
        _ablation_points((GraphSpec(n=3_600, k=10, seed=12), (6, 6)),
                         (GraphSpec(n=14_400, k=10, seed=12), (6, 6))),
        _platform,
        (("machine", "name", ""), ("time(s)", "mean_time_s", ".6f"),
         ("comm(s)", "mean_comm_s", ".6f"), ("compute(s)", "mean_compute_s", ".6f"),
         ("messages", "messages", ""), ("same levels", "same_levels", "")),
        (Claim("platform.same-levels", "the machine model only affects time", _same_levels),
         Claim("platform.mcr-faster-cores", "MCR computes faster on identical traffic",
               _mcr_faster_cores)),
    ),
    Figure(
        "fold", "DESIGN §5", "fold collective ablation", "executed",
        _ablation_points(*_COLLECTIVE_POINTS, axis="fold_collective",
                         names=["direct", "ring", "union-ring", "two-phase", "bruck"]),
        _collectives, (("fold", "name", ""),) + _ABLATION_COLUMNS,
        (Claim("fold.same-levels", "every fold returns the same levels", _same_levels),
         Claim("fold.shapes",
               "union reduction cuts volume; grouped and log-round folds cut messages",
               _fold_shapes)),
    ),
    Figure(
        "expand", "DESIGN §5", "expand collective ablation", "executed",
        _ablation_points(*_COLLECTIVE_POINTS, axis="expand_collective",
                         names=["direct", "ring", "two-phase", "recursive-doubling"]),
        _collectives, (("expand", "name", ""),) + _ABLATION_COLUMNS,
        (Claim("expand.same-levels", "every expand returns the same levels", _same_levels),
         Claim("expand.filtered-direct",
               "the filtered direct expand ships no more than the forwarding ring",
               _filtered_expand)),
    ),
    Figure(
        "mapping", "Fig 1 / §3.2.1", "planar vs row-major task mapping on the torus", "executed",
        # 8x8 maps onto the 4x4x4 torus at both tiers
        _ablation_points((GraphSpec(n=4_000, k=10, seed=8), (8, 8)),
                         (GraphSpec(n=16_000, k=10, seed=8), (8, 8))),
        _mapping,
        (("mapping", "name", ""), ("expand ring (col)", "expand_ring_hops", ".1f"),
         ("fold ring (row)", "fold_ring_hops", ".1f"), ("time(s)", "mean_time_s", ".6f"),
         ("comm(s)", "mean_comm_s", ".6f"), ("same levels", "same_levels", "")),
        (Claim("mapping.same-levels", "the mapping only affects time", _same_levels),
         Claim("mapping.planar-tighter", "planar groups are physically tighter and no slower",
               _planar_tighter)),
    ),
    Figure(
        "sent-cache", "§2.4.3", "sent-neighbours cache on/off under both layouts", "executed",
        _ablation_points(*_CACHE_POINTS), _sent_cache,
        (("layout / cache", "name", ""), ("time(s)", "mean_time_s", ".6f"),
         ("fold volume", "fold_volume", ""), ("wire vertices", "wire_vertices", ""),
         ("same levels", "same_levels", "")),
        (Claim("sent-cache.same-levels", "the cache never changes results", _same_levels),
         Claim("sent-cache.cuts-fold", "the cache cuts fold traffic, decisively under 2D",
               _cache_cuts_fold)),
    ),
    Figure(
        "buffers", "§3.1", "fixed-length message buffers", "executed",
        _ablation_points(*_CACHE_POINTS), _buffers,
        (("capacity (vertices)", "name", ""), ("time(s)", "mean_time_s", ".6f"),
         ("messages", "messages", ""), ("same levels", "same_levels", "")),
        (Claim("buffers.same-levels", "capping the buffer never changes results", _same_levels),
         Claim("buffers.latency-only", "tighter caps add chunks at a modest latency cost",
               _caps_cost_latency_only)),
    ),
    Figure(
        "distgen", "§2 substrate", "per-rank generation without a global graph", "executed",
        _ablation_points((GraphSpec(n=10_000, k=8, seed=17), (3, 3)),
                         (GraphSpec(n=100_000, k=8, seed=17), (6, 6))),
        _distgen,
        (("n", "n", ""), ("P", "p", ""), ("total entries", "total_entries", ""),
         ("entries/rank mean", "entries_mean", ".0f"), ("entries/rank max", "entries_max", ""),
         ("cells/rank max", "cells_max", ""), ("cells bound (2P)", "cells_bound", ""),
         ("exact", "exact", "")),
        (Claim("distgen.exact", "per-rank generation reproduces the central partition exactly",
               lambda rows: (rows[0]["exact"], f"{rows[0]['p']} ranks compared")),
         Claim("distgen.proportional", "each rank touches at most 2P cells and stays balanced",
               lambda rows: (rows[0]["cells_max"] <= rows[0]["cells_bound"]
                             and rows[0]["entries_max"] < 1.2 * rows[0]["entries_mean"],
                             f"{rows[0]['cells_max']} cells; max/mean entries "
                             f"{rows[0]['entries_max'] / rows[0]['entries_mean']:.2f}"))),
    ),
    Figure(
        "compression", "arXiv:1208.5542", "wire codecs vs average degree: bytes on the wire",
        "executed",
        {"quick": dict(n=1_000, k=[4.0, 16.0], grid=(4, 4), seed=7),
         "full": dict(n=20_000, k=[4.0, 8.0, 32.0, 64.0], grid=(4, 4), seed=7)},
        _compression,
        (("k", "k", "g"), ("codec", "name", ""), ("messages", "messages", ""),
         ("raw bytes", "raw_bytes", ""), ("wire bytes", "wire_bytes", ".0f"),
         ("ratio", "compression", ".3f"), ("time(s)", "mean_time_s", ".6f"),
         ("same levels", "same_levels", "")),
        (Claim("compression.raw-identity", "the raw codec ships exactly the payload bytes",
               _raw_identity, ("quick", "full")),
         Claim("compression.compresses", "every compressing codec ships fewer bytes than raw",
               _codecs_compress, ("quick", "full")),
         Claim("compression.adaptive", "adaptive ties the best fixed codec up to a tag byte",
               _adaptive_tracks_best, ("quick", "full")),
         Claim("compression.same-levels", "every codec returns the raw run's levels",
               _same_levels, ("quick", "full")),
         Claim("compression.bitmap-margin",
               "the bitmap's margin over delta-varint grows with the degree",
               _bitmap_margin_grows),
         Claim("compression.ratio-grows", "compression improves as the frontier densifies",
               _ratio_grows)),
    ),
    Figure(
        "sieve", "arXiv:1208.5542", "cross-level sieve: fold bytes off and on, every codec",
        "executed",
        {"quick": dict(seed=7, workloads=[("smoke", 2_000, 8.0, (4, 4)),
                                          ("reference", 20_000, 8.0, (8, 8))]),
         "full": dict(seed=7, workloads=[("sparse", 20_000, 4.0, (8, 8)),
                                         ("reference", 20_000, 8.0, (8, 8)),
                                         ("dense", 20_000, 16.0, (8, 8))])},
        _sieve,
        (("workload", "workload", ""), ("codec / sieve", "name", ""),
         ("fold bytes", "fold_bytes", ""), ("summary bytes", "summary_bytes", ""),
         ("sieved", "sieved", ""), ("levels", "levels", ""), ("time(s)", "mean_time_s", ".6f"),
         ("same levels", "same_levels", "")),
        (Claim("sieve.harmless", "sieved runs keep the levels and the level schedule",
               _sieve_harmless, ("quick", "full")),
         Claim("sieve.fired", "the sieve drops candidates in every sieved run", _sieve_fired,
               ("quick", "full")),
         Claim("sieve.cuts-fold",
               "at the reference point the sieve cuts fold bytes >= 25 % on raw, "
               "delta-varint and adaptive", _sieve_cuts_fold, ("quick", "full")),
         Claim("sieve.cuts-bitmap", "the span-priced bitmap's fold bytes still fall",
               _sieve_cuts_bitmap, ("quick", "full"))),
    ),
    Figure(
        "direction", "arXiv:1705.04590", "top-down, hybrid and bottom-up: traversed edges",
        "executed",
        {"quick": dict(seed=3, poisson=(2_000, 8.0), rmat=(10, 8),
                       layouts={"1d": (4, 1), "2d": (2, 2)}),
         "full": dict(seed=3, poisson=(8_000, 10.0), rmat=(12, 16),
                      layouts={"1d": (4, 1), "2d": (4, 4)})},
        _direction,
        (("graph", "graph", ""), ("direction", "name", ""),
         ("edges scanned", "edges_scanned", ".0f"), ("time(s)", "mean_time_s", ".6f"),
         ("levels", "levels", ""), ("bottom-up levels", "bottom_up_levels", ""),
         ("same levels", "same_levels", "")),
        (Claim("direction.same-levels", "every direction returns the top-down levels",
               _same_levels, ("quick", "full")),
         Claim("direction.rmat-cut",
               "on R-MAT the hybrid scans >= 2x fewer edges than top-down, 1D and 2D",
               _rmat_cut, ("quick", "full")),
         Claim("direction.poisson-bounded",
               "on the Poisson graph the hybrid never scans 2x more than top-down (2D)",
               _poisson_bounded, ("quick", "full")),
         Claim("direction.rmat-switched", "the hybrid switches to bottom-up on R-MAT",
               _rmat_switched, ("quick", "full"))),
    ),
    Figure(
        "faults", "DESIGN §7", "fault overhead: message drops, rank crashes, stragglers",
        "executed",
        {tier: dict(graph=graph, grid=(4, 4), drops=[0.0, 0.01, 0.02, 0.05, 0.1],
                    crashes=["crash-spare", "crash-shrink", "crash-harsh"],
                    stragglers=[1.5, 3.0])
         for tier, graph in (("quick", GraphSpec(n=2_000, k=8.0, seed=3)),
                             ("full", GraphSpec(n=8_000, k=10, seed=3)))},
        _faults,
        (("schedule", "name", ""), ("drop", "drop_rate", "g"), ("crash", "crash_rate", "g"),
         ("time(s)", "mean_time_s", ".6f"), ("overhead", "overhead", ".2%"),
         ("injected", "injected", ""), ("retries", "retries", ""),
         ("rollbacks", "rollbacks", ""), ("crashes", "crashes", ""),
         ("spare failovers", "spare_failovers", ""),
         ("shrink failovers", "shrink_failovers", ""), ("replays", "replayed_levels", ""),
         ("checkpoint bytes", "checkpoint_bytes", ""),
         ("same levels", "same_levels", "")),
        (Claim("faults.empty-is-free", "a zero-rate schedule costs exactly nothing",
               _empty_schedule_free),
         Claim("faults.recover", "every faulted run keeps the levels and costs time",
               _faults_recover, ("quick", "full")),
         Claim("faults.drops-graceful", "the harshest drop rate costs most, under 2x",
               _drops_graceful),
         Claim("faults.stragglers", "slower stragglers stretch the level barrier further",
               _stragglers_ordered),
         Claim("faults.crashes-recovered",
               "every crash fails over, replays its levels and was checkpointed",
               _crashes_recovered),
         Claim("faults.crashes-graceful", "the combined crash preset costs most, under 8x",
               _crashes_graceful)),
    ),
    Figure(
        "chaos", "DESIGN §7", "seeded random fault schedules: recover exactly or fail loudly",
        "executed",
        {"quick": dict(graph=GraphSpec(n=120, k=6.0, seed=11), grid=(2, 2), seeds=25),
         "full": dict(graph=GraphSpec(n=400, k=8.0, seed=11), grid=(4, 4), seeds=100)},
        _chaos,
        (("schedule", "schedule", ""), ("outcome", "outcome", ""), ("problems", "problems", ""),
         ("injected", "injected", ""), ("crashes", "crashes", ""),
         ("failovers", "failovers", ""), ("replays", "replayed_levels", ""),
         ("rollbacks", "rollbacks", ""), ("checkpoint bytes", "checkpoint_bytes", "")),
        (Claim("chaos.no-invalid", "no schedule returns wrong levels or fails without a report",
               _no_invalid, ("quick", "full")),),
    ),
)}
