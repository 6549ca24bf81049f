"""Query sessions: partition once, search many times.

The paper's motivating application — relationship queries on a semantic
graph — issues *many* s-t searches against one graph.  Building the 2D
partition, the task mapping onto the torus, and the engine's concatenated
CSR tables dominates one-shot query cost, so :class:`BfsSession` builds
all of them exactly once and serves repeated queries.  Each query runs on
a fresh :class:`~repro.runtime.comm.Communicator` (so per-query statistics
and simulated times stay independent) that reuses the session's cached
:class:`~repro.machine.mapping.TaskMapping`, machine model, and routed
:class:`~repro.runtime.network.Network` — making ``_new_comm`` O(1) in the
graph and mesh size instead of re-deriving the torus per query.

Sessions are the substrate of :mod:`repro.server`: the engine is
re-entrant (rebound to the fresh communicator per query), queries can be
batched into one multi-source traversal (:meth:`BfsSession.bfs_many`),
and the served-query counters are guarded by a lock so concurrent server
workers can share one session.

Also provides :func:`extract_path`: an explicit shortest path from the
level arrays of a bi-directional search (the paper reports distances; the
application wants the path itself).
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from repro.api import engine_mesh, resolve_machine_model, resolve_task_mapping
from repro.bfs.bidirectional import run_bidirectional_bfs
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.bfs.msbfs import MsBfsResult, run_ms_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult, BidirectionalResult
from repro.errors import ConfigurationError, SearchError
from repro.faults import FaultPlan, FaultSchedule, FaultSpec
from repro.graph.csr import CsrGraph
from repro.partition.degree_aware import degree_aware_relabeling
from repro.partition.permutation import VertexRelabeling
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.runtime.network import Network
from repro.types import GridShape, SystemSpec, UNREACHED, resolve_system

__all__ = ["BfsSession", "extract_path"]


class BfsSession:
    """A reusable query context over one graph and one layout.

    The target system is a :class:`SystemSpec` (or preset name) passed as
    ``system=``; ``wire``/``faults``/``observe`` override its fields, as
    everywhere else in the API.

    Everything expensive is resolved once at construction and shared by
    all subsequent queries: the partition, the machine model, the task
    mapping (torus), the routed network, and one engine per direction.
    The cumulative counters (``queries_served``, ``total_simulated_time``)
    are lock-guarded, so a server may update them from concurrent workers;
    the *traversals themselves* mutate the shared engine and must be
    serialized by the caller (the asyncio server funnels them through one
    worker thread).
    """

    def __init__(
        self,
        graph: CsrGraph,
        grid: GridShape | tuple[int, int],
        *,
        opts: BfsOptions | None = None,
        system: SystemSpec | str | None = None,
        wire: str | None = None,
        faults: FaultSpec | None = None,
        observe: str | None = None,
        relabel: str | None = None,
    ) -> None:
        if not isinstance(grid, GridShape):
            grid = GridShape(*grid)
        self.graph = graph
        self.grid = grid
        self.opts = opts or BfsOptions()
        #: vertex permutation applied before partitioning (None = identity).
        #: Queries and results are always in *original* vertex ids — sources
        #: and targets are mapped in, level arrays mapped back out.
        self.relabeling = self._resolve_relabeling(relabel, graph, grid)
        search_graph = (
            self.relabeling.apply(graph) if self.relabeling is not None else graph
        )
        #: the resolved system description this session simulates
        self.system = resolve_system(system, wire=wire, faults=faults, observe=observe)
        self.machine = self.system.machine
        self.mapping = self.system.mapping
        self.layout = self.system.layout
        self.wire = self.system.wire
        self.observe = self.system.observe
        self.partition = TwoDPartition(search_graph, engine_mesh(grid, self.system))
        # Resolved once; _new_comm only allocates fresh clocks/stats per
        # query instead of re-deriving torus, mapping, and routes.
        self._model = resolve_machine_model(self.system)
        self._task_mapping = resolve_task_mapping(grid, self.system, self._model)
        self._network = Network(self._task_mapping, self._model)
        #: the last fault plan sampled: one per spec (at 4,096 ranks its
        #: degraded links alone are P**2 draws)
        self._fault_plan: FaultPlan | None = None
        self._engine = self._build_engine()
        #: lazily built second engine for bi-directional queries
        self._backward_engine = None
        self._counters_lock = threading.Lock()
        #: cumulative simulated seconds across all queries served
        self.total_simulated_time = 0.0
        #: number of queries served
        self.queries_served = 0

    # ------------------------------------------------------------------ #
    # vertex relabeling (degree-aware partitioning for skewed graphs)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_relabeling(
        relabel: str | None, graph: CsrGraph, grid: GridShape
    ) -> VertexRelabeling | None:
        if relabel is None or relabel == "none":
            return None
        if relabel == "degree":
            return degree_aware_relabeling(graph, grid.size)
        if relabel == "random":
            return VertexRelabeling.random(graph.n)
        raise ConfigurationError(
            f"unknown relabel strategy {relabel!r}; expected one of "
            "'none', 'random', 'degree'"
        )

    def _to_internal(self, vertex: int | None) -> int | None:
        """Map an original vertex id into the relabeled search space."""
        if vertex is None or self.relabeling is None:
            return vertex
        if not (0 <= vertex < self.relabeling.n):
            return vertex  # out of range: let the driver raise its usual error
        return int(self.relabeling.to_new[vertex])

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #
    def _build_engine(self):
        return LevelSyncEngine(self.partition, self._new_comm(), self.opts)

    def _new_engine(self, comm):
        """The session's long-lived engine, rebound to a fresh communicator."""
        self._engine.rebind(comm)
        return self._engine

    def _new_comm(self, fault_seed: int | None = None):
        """A fresh communicator over the cached mapping/model/network.

        O(1) in graph and mesh size: only the per-query clocks, statistics,
        and (when faults are configured) a fresh fault schedule over the
        session's sampled :class:`~repro.faults.FaultPlan` are allocated;
        the torus, task mapping, and routed link tables are the session's
        cached instances.  ``fault_seed`` reseeds the schedule
        for this query only — retrying a :class:`FaultError` under the
        spec's own seed replays the identical loss pattern, so callers
        that retry (the server) must vary the seed to draw fresh faults.
        """
        faults = self.system.faults
        if faults is not None and fault_seed is not None:
            faults = replace(faults, seed=int(fault_seed))
        schedule = None
        if faults is not None:
            if self._fault_plan is None or self._fault_plan.spec != faults:
                self._fault_plan = FaultPlan.sample(faults, self.grid.size)
            schedule = FaultSchedule(faults, self.grid.size, self._fault_plan)
        return Communicator(
            self._task_mapping,
            self._model,
            buffer_capacity=self.opts.buffer_capacity,
            faults=schedule,
            wire=self.wire,
            observe=self.observe,
            network=self._network,
        )

    def _record(self, elapsed: float, queries: int = 1) -> None:
        with self._counters_lock:
            self.total_simulated_time += elapsed
            self.queries_served += queries

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def bfs(
        self,
        source: int,
        target: int | None = None,
        *,
        fault_seed: int | None = None,
    ) -> BfsResult:
        """Full or early-terminating BFS from ``source``."""
        result = run_bfs(
            self._new_engine(self._new_comm(fault_seed)),
            self._to_internal(source),
            target=self._to_internal(target),
        )
        if self.relabeling is not None:
            result.levels = self.relabeling.restore_levels(result.levels)
            result.source = source
            result.target = target
        self._record(result.elapsed)
        return result

    def bfs_many(
        self,
        sources: list[int],
        targets: list[int | None] | None = None,
        *,
        fault_seed: int | None = None,
    ) -> MsBfsResult:
        """Batched multi-source traversal (MS-BFS, bit-parallel frontiers).

        Runs every source in one shared traversal — one pass over the
        partition per *batch* level instead of one traversal per query —
        and returns an :class:`~repro.bfs.msbfs.MsBfsResult` whose
        per-source level rows are byte-identical to sequential
        :meth:`bfs` runs.  Batches are limited to 64 sources (one mask
        bit each).  Fault schedules compose with batching: batch levels
        checkpoint the per-source frontier masks and retirement state at
        level boundaries and replay on wire drops or rank crashes, so
        faulted batches still return fault-free levels (or raise
        :class:`~repro.errors.FaultError` once the replay budget is
        spent).  ``fault_seed`` reseeds the schedule for this call (see
        :meth:`_new_comm`).
        """
        result = run_ms_bfs(
            self._new_engine(self._new_comm(fault_seed)),
            [self._to_internal(s) for s in sources],
            targets=(
                [self._to_internal(t) for t in targets]
                if targets is not None
                else None
            ),
        )
        if self.relabeling is not None:
            # take keeps the rows C-ordered (a fancy column index returns
            # them F-ordered, and every row view would then be strided)
            result.levels = np.take(result.levels, self.relabeling.to_new, axis=1)
            result.sources = tuple(sources)
            result.targets = (
                tuple(targets) if targets is not None else result.targets
            )
        self._record(result.elapsed, queries=len(sources))
        return result

    def bidirectional(self, source: int, target: int) -> BidirectionalResult:
        """Bi-directional s-t search (Section 2.3)."""
        comm = self._new_comm()
        if self._backward_engine is None:
            self._backward_engine = self._build_engine()
        forward = self._new_engine(comm)
        self._backward_engine.rebind(comm)
        result = run_bidirectional_bfs(
            forward,
            self._backward_engine,
            self._to_internal(source),
            self._to_internal(target),
        )
        if self.relabeling is not None:
            result.source = source
            result.target = target
        self._record(result.elapsed)
        return result

    def distance(self, source: int, target: int) -> int | None:
        """Graph distance via bi-directional search; None when disconnected."""
        return self.bidirectional(source, target).path_length

    def shortest_path(self, source: int, target: int) -> list[int] | None:
        """An explicit shortest path (vertex list), or None when disconnected.

        Runs a forward search terminated at the target, then backtracks
        through the level array — each hop moves to any neighbour exactly
        one level closer to the source.
        """
        result = self.bfs(source, target=target)
        if result.target_level is None:
            return None
        return extract_path(self.graph, result.levels, source, target)


def extract_path(
    graph: CsrGraph, levels: np.ndarray, source: int, target: int
) -> list[int]:
    """Backtrack a shortest path from ``target`` to ``source`` through ``levels``.

    ``levels`` must label every vertex on some shortest path (e.g. a full
    or target-terminated BFS from ``source``).  Deterministic: the smallest
    qualifying neighbour is taken at each hop.
    """
    levels = np.asarray(levels)
    if not (0 <= target < graph.n) or not (0 <= source < graph.n):
        raise SearchError("source/target out of range")
    if levels[target] == UNREACHED:
        raise SearchError(f"target {target} was not reached by this search")
    if levels[source] != 0:
        raise SearchError(f"vertex {source} is not the search source")
    path = [target]
    current = target
    while current != source:
        level = levels[current]
        neighbors = graph.neighbors(current)
        closer = neighbors[levels[neighbors] == level - 1]
        if closer.size == 0:  # pragma: no cover - valid BFS labellings prevent this
            raise SearchError(f"no predecessor for vertex {current} at level {level}")
        current = int(closer[0])
        path.append(current)
    path.reverse()
    return path
