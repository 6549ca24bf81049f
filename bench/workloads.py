"""The six workloads and the three ways of driving them.

Every input — graph, source pool, arrival schedule — is generated from the
benchmark's ``--seed``; the program under test only ever sees those
inputs.  Sources are drawn Graph500-style (vertices of degree >= 1) into a
fixed pool that every round walks in the same order, so a round's
simulated-clock and byte counters repeat exactly.

Drivers: ``SessionDriver`` is one caller issuing ``BfsSession.bfs`` back to
back; ``ServeDriver`` drives ``BfsService.submit`` in-process through the
JSON line codec (no sockets: event loop + one worker thread = two busy
threads), either as a closed loop of callers that each await their reply
or as an open loop that sends on a seeded Poisson schedule.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import repro
from repro.errors import ReproError
from repro.server import protocol
from repro.server.service import BfsService

import oracle

clock = time.perf_counter


@dataclass(frozen=True)
class Config:
    """Inputs and op counts of one workload at one size."""

    graph: dict
    grid: tuple[int, int]
    warmup: int
    ops: int
    system: dict = field(default_factory=dict)
    direction: str = "top-down"
    relabel: str | None = None
    #: serve workloads: awaiting callers (closed loop and warm-up)
    callers: int = 0
    #: serve-open: arrivals per second
    rate: float = 0.0
    #: distinct sources cycled (0 = one per op of a round)
    pool: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str
    full: Config
    smoke: Config


KNOBS = {"wire": "adaptive", "faults": "mild", "observe": "messages"}
REF = {"n": 20_000, "k": 8}
TINY = {"n": 2_000, "k": 8}

WORKLOADS = {w.name: w for w in (
    Workload(
        "mesh-fast",
        "4096 ranks on a small graph: rank scheduling, network contention and "
        "collectives do the work, kernels almost none; the array fast path",
        "session",
        Config(REF, (64, 64), warmup=3, ops=8),
        Config(TINY, (8, 8), warmup=1, ops=4),
    ),
    Workload(
        "mesh-knobs",
        "same layers with codec, fault schedule and message trace on: the "
        "dict-outbox slow path the one-message-path refactor must move",
        "session",
        Config(REF, (8, 8), warmup=2, ops=4, system=KNOBS),
        Config(TINY, (4, 4), warmup=1, ops=3, system=KNOBS),
    ),
    Workload(
        "data-topdown",
        "16 ranks on 1.6M adjacency entries: engine kernels dominate and rank "
        "overhead is nil; the mirror of mesh-fast",
        "session",
        Config({"n": 100_000, "k": 16}, (4, 4), warmup=3, ops=8),
        Config({"n": 4_000, "k": 16}, (2, 2), warmup=1, ops=4),
    ),
    Workload(
        "rmat-hybrid",
        "skewed R-MAT with direction switching and degree relabeling: only user "
        "of bottom-up; short ops expose per-query fixed cost",
        "session",
        Config({"scale": 16, "edge_factor": 8}, (4, 4), warmup=8, ops=192,
               direction="hybrid", relabel="degree"),
        Config({"scale": 11, "edge_factor": 8}, (2, 2), warmup=2, ops=24,
               direction="hybrid", relabel="degree"),
    ),
    Workload(
        "serve-closed",
        "64 callers awaiting replies: every batch is 64 wide, so MS-BFS at full "
        "width, digests, reply encoding and worker hand-off set capacity",
        "closed",
        Config(REF, (4, 4), warmup=128, ops=768, callers=64, pool=256),
        Config(TINY, (2, 2), warmup=64, ops=256, callers=64, pool=128),
    ),
    Workload(
        "serve-open",
        "independent users arriving at 100 q/s: narrow batches, so MS-BFS fixed "
        "cost and queue wait set latency; timed from each query's due time",
        "open",
        Config(REF, (4, 4), warmup=96, ops=200, callers=8, rate=100.0),
        Config(TINY, (2, 2), warmup=32, ops=100, callers=8, rate=200.0),
    ),
)}


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def graph_spec(graph: dict, seed: int) -> repro.GraphSpec:
    if "scale" in graph:
        return repro.GraphSpec.rmat(
            graph["scale"], edge_factor=graph["edge_factor"], seed=seed
        )
    return repro.GraphSpec(n=graph["n"], k=graph["k"], seed=seed)


def pick_sources(indptr: np.ndarray, count: int, seed: int) -> list[int]:
    """``count`` distinct vertices of degree >= 1, in a seeded order."""
    candidates = np.flatnonzero(np.diff(indptr) > 0)
    rng = np.random.default_rng([seed, 1])
    picked = rng.choice(candidates, size=count, replace=candidates.size < count)
    return [int(v) for v in picked]


def arrival_times(count: int, rate: float, seed: int) -> np.ndarray:
    """Due times (seconds from round start) of a Poisson arrival process,
    stretched so the last one is due at ``count / rate``: every seed then
    offers the same load over the same span, and only the gaps differ."""
    rng = np.random.default_rng([seed, 2])
    times = np.cumsum(rng.exponential(1.0, size=count))
    return times * (count / rate / times[-1])


class Traversal(NamedTuple):
    """The public counters of one traversal (its level arrays dropped)."""

    width: int
    elapsed: float
    comm_time: float
    compute_time: float
    stats: object
    faults: object
    events: int


class RecordingSession(repro.BfsSession):
    """A ``BfsSession`` that keeps each traversal's public counters.

    The service returns none of the simulated-clock or byte counters to
    its callers, so the benchmark reads them off the results as they pass
    through the session's public methods.  Level arrays are not retained.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log: list[Traversal] = []

    def _keep(self, width: int, result) -> None:
        obs = getattr(result, "observability", None)
        self.log.append(Traversal(
            width, result.elapsed, result.comm_time, result.compute_time,
            result.stats, result.faults, len(obs.messages) if obs else 0,
        ))

    def bfs(self, source, target=None, **kwargs):
        result = super().bfs(source, target, **kwargs)
        self._keep(1, result)
        return result

    def bfs_many(self, sources, targets=None, **kwargs):
        result = super().bfs_many(sources, targets, **kwargs)
        self._keep(len(sources), result)
        return result


# ---------------------------------------------------------------------- #
# one round's outcome
# ---------------------------------------------------------------------- #
@dataclass
class Round:
    """What one pass over the op list produced."""

    #: host-wall seconds per completed op (open loop: from its due time)
    latencies: list[float] = field(default_factory=list)
    #: open loop only: seconds each op started after it was due
    late: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: timed wall of the round in seconds
    wall: float = 0.0
    #: slice of the session log this round produced
    log: list[Traversal] = field(default_factory=list)
    #: first wrong answer, in words
    mismatch: str | None = None
    #: serve workloads: (query id, started, submitted, reply arrived, ended)
    ops: list[tuple] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.mismatch is None:
            self.mismatch = why


# ---------------------------------------------------------------------- #
# drivers
# ---------------------------------------------------------------------- #
class Driver:
    """Shared set-up: graph, source pool, session, answer key."""

    def __init__(self, name: str, cfg: Config, seed: int, tracer=None) -> None:
        self.name, self.cfg, self.seed, self.tracer = name, cfg, seed, tracer
        self.graph = self.session = None
        self.sources: list[int] = []
        #: host-wall seconds of the warm-up ops, first one cold
        self.warm: list[float] = []
        self._next_op = 0

    def build(self) -> None:
        cfg = self.cfg
        self.graph = repro.build_graph(graph_spec(cfg.graph, self.seed))
        self.sources = pick_sources(
            self.graph.indptr, cfg.pool or cfg.ops, self.seed
        )
        self.session = RecordingSession(
            self.graph, cfg.grid,
            opts=repro.BfsOptions(direction=cfg.direction),
            system=repro.SystemSpec(**cfg.system), relabel=cfg.relabel,
        )

    def source(self, i: int) -> int:
        return self.sources[i % len(self.sources)]

    def answer_key(self) -> None:
        """Oracle answers for the pool; never inside a timed window."""
        adj = oracle.adjacency(self.graph.indptr, self.graph.indices)
        self.answers = {s: self._answer(oracle.oracle_levels(adj, s))
                        for s in set(self.sources)}

    async def close(self) -> None:
        self.session = self.graph = None


class SessionDriver(Driver):
    """One caller, ``BfsSession.bfs`` back to back."""

    @staticmethod
    def _answer(levels: np.ndarray) -> np.ndarray:
        return levels.astype(np.int16) if levels.max() < 2**15 else levels

    async def setup(self) -> None:
        self.build()
        self.warm = []
        for i in range(self.cfg.warmup):
            t0 = clock()
            self.session.bfs(self.source(i))
            self.warm.append(clock() - t0)

    async def round(self) -> Round:
        out = Round()
        mark = len(self.session.log)
        tracer = self.tracer
        for i in range(self.cfg.ops):
            source = self.source(i)
            out.attempted += 1
            self._next_op += 1
            span_mark = len(tracer.spans) if tracer else 0
            root = tracer.begin("op", op=self._next_op) if tracer else None
            t0 = clock()
            try:
                result, error = self.session.bfs(source), None
            except ReproError as exc:
                result, error = None, exc
            seconds = clock() - t0
            if root is not None:
                tracer.end(root)
            if result is None:
                out.fail(f"{self.name} op {i} source {source}: {error!r}")
                continue
            if tracer:
                _label_steps(tracer.spans, span_mark, result.stats.levels)
            vertex = oracle.first_difference(result.levels, self.answers[source])
            if vertex is not None:
                out.fail(f"{self.name} op {i} source {source}: level of vertex "
                         f"{vertex} is {result.levels[vertex]}, oracle says "
                         f"{self.answers[source][vertex]}")
                continue
            out.latencies.append(seconds)
        out.wall = sum(out.latencies)
        out.log = self.session.log[mark:]
        return out


def _label_steps(spans: list, start: int, levels) -> None:
    """Rename this op's ``bfs.step`` spans by the direction each level ran."""
    steps = (rec for rec in spans[start:] if rec[0] == "bfs.step")
    for rec, level in zip(steps, levels):
        rec[0] = f"bfs.step.{level.direction}"


#: replies the service gives without the query ever riding a traversal
NOT_TRAVERSED = ("closed", "bad_request", "overloaded", "deadline")


class ServeDriver(Driver):
    """``BfsService`` in-process, one JSON request and reply per query."""

    def __init__(self, name, cfg, seed, tracer=None, *, open_loop: bool) -> None:
        super().__init__(name, cfg, seed, tracer)
        self.open_loop = open_loop
        self.service: BfsService | None = None
        self.dues = arrival_times(cfg.ops, cfg.rate, seed) if open_loop else None

    _answer = staticmethod(oracle.digest)

    async def setup(self) -> None:
        self.build()
        #: ids of the queries that rode a traversal, in admission order (the
        #: service's queue is FIFO)
        self.admitted: list[int] = []
        self.service = BfsService(self.session)
        await self.service.start()
        _, results = await closed_loop(self.query, self.cfg.warmup, self.cfg.callers)
        self.warm = [row[1] for row in sorted(results, key=lambda row: row[0])]

    async def close(self) -> None:
        if self.service is not None:
            await self.service.close()
            self.service = None
        await super().close()

    async def query(self, i: int) -> tuple:
        """One query the way a line-protocol client and server would
        handle it: encode, decode, submit, encode the reply, decode it.
        Returns (query id, reply, time submitted, time the reply arrived)."""
        self._next_op += 1
        line = protocol.Query(source=self.source(i), id=self._next_op).to_json()
        request = protocol.decode_request(line)
        query = protocol.Query(
            source=request["source"], target=request.get("target"),
            id=request.get("id"),
        )
        self.admitted.append(query.id)
        submitted = clock()
        reply = await self.service.submit(query)
        resumed = clock()
        if reply.error_code in NOT_TRAVERSED:
            self.admitted.remove(query.id)
        return query.id, protocol.QueryReply.from_json(reply.to_json()), submitted, resumed

    async def round(self) -> Round:
        out = Round()
        mark = len(self.session.log)
        if self.open_loop:
            out.wall, results = await open_loop(self.query, self.dues)
        else:
            out.wall, results = await closed_loop(
                self.query, self.cfg.ops, self.cfg.callers
            )
        for i, seconds, (qid, reply, submitted, resumed), start, late in results:
            source = self.source(i)
            out.attempted += 1
            if not reply.ok:
                out.fail(f"{self.name} op {i} source {source}: refused "
                         f"({reply.error_code}: {reply.error})")
            elif reply.result["levels_digest"] != self.answers[source]:
                out.fail(f"{self.name} op {i} source {source}: levels digest "
                         f"differs from the oracle's")
            else:
                out.latencies.append(seconds)
            if self.open_loop:
                out.late.append(late)
            out.ops.append((qid, start + late, submitted, resumed, start + seconds))
        out.log = self.session.log[mark:]
        return out


async def closed_loop(op, count: int, callers: int):
    """``callers`` coroutines each send their next op when the previous
    reply arrives.  Returns (wall seconds, [(i, seconds, result, start, 0.0)])."""
    async def caller(first: int) -> list[tuple]:
        done = []
        for i in range(first, count, callers):
            t0 = clock()
            result = await op(i)
            done.append((i, clock() - t0, result, t0, 0.0))
        return done

    t0 = clock()
    per_caller = await asyncio.gather(*(caller(c) for c in range(callers)))
    wall = clock() - t0
    return wall, [row for rows in per_caller for row in rows]


async def open_loop(op, dues):
    """Start ``op(i)`` ``dues[i]`` seconds from now whether or not earlier
    ops have finished; latency counts from the due time, so a stall shows
    in every op it delays.  Returns (first due -> last reply seconds,
    [(i, seconds from due, result, due, seconds started late)])."""
    origin = clock()

    async def one(i: int, due: float) -> tuple:
        started = clock()
        result = await op(i)
        return i, clock() - due, result, due, started - due

    tasks = []
    for i, offset in enumerate(dues):
        due = origin + float(offset)
        await asyncio.sleep(max(0.0, due - clock()))
        tasks.append(asyncio.ensure_future(one(i, due)))
    results = await asyncio.gather(*tasks)
    last_reply = max(due + seconds for _, seconds, _, due, _ in results)
    return last_reply - (origin + float(dues[0])), list(results)


def make_driver(name: str, seed: int, *, smoke: bool = False, tracer=None) -> Driver:
    workload = WORKLOADS[name]
    cfg = workload.smoke if smoke else workload.full
    if workload.driver == "session":
        return SessionDriver(name, cfg, seed, tracer)
    return ServeDriver(name, cfg, seed, tracer, open_loop=workload.driver == "open")
