"""Outside-in tracing: timing wrappers around the layers' public callables.

Nothing in ``src/`` knows about this file.  :func:`install` replaces class
attributes and module-level functions with wrappers that record one span
per call; :meth:`Tracer.uninstall` puts the originals back.  Wrappers go
on classes and modules, never on instances: ``Communicator.exchange_arrays``
leaves its fast path whenever ``exchange`` is overridden on the instance,
so an instance patch would change what is measured.

A span is ``[name, start, end, parent, thread, args]`` with ``parent`` the
enclosing span on the same thread; names are ``<layer>.<callable>``.  A
span's *self time* is its duration minus its children's, so the self
times under one root add up to the root's duration.  Awaited calls
(``BfsService.submit``, one served query) interleave on the event loop and
cannot nest, so they are kept apart as ``intervals``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

NAME, START, END, PARENT, THREAD, ARGS = range(6)


class Tracer:
    """In-memory span store plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: awaited calls: (name, start, end)
        self.intervals: list[tuple[str, float, float]] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, **args) -> list:
        """Open a span by hand (the benchmark's own per-op root spans)."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None,
               threading.get_ident(), args]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    def _sync(self, fn, name: str, args_of=None):
        spans, local, clock = self.spans, self._local, time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, ident(),
                   args_of(*args, **kwargs) if args_of else None]
            # append is atomic; the worker and loop threads share the list
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _awaited(self, fn, name: str):
        intervals, clock = self.intervals, time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                intervals.append((name, start, clock()))

        return wrapper

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, args_of=None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._sync(raw.__func__, name, args_of)))
        elif inspect.iscoroutinefunction(raw):
            self._set(cls, attr, self._awaited(raw, name))
        elif inspect.isfunction(raw):
            self._set(cls, attr, self._sync(raw, name, args_of))

    def wrap_family(self, base: type, prefixes: tuple[str, ...], name: str) -> None:
        """Wrap, on ``base`` and every subclass, each function a class
        defines whose name starts with one of ``prefixes``."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in list(cls.__dict__):
                if attr.startswith(prefixes):
                    self.wrap_method(cls, attr, name)

    def wrap_function(self, fn, name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds it, including those that imported it by name."""
        wrapper = self._sync(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer, outermost layer first."""
    from repro.bfs import level_sync, msbfs
    from repro.bfs.result import BfsResult, QueryResult
    from repro.collectives.base import ExpandCollective, FoldCollective
    from repro.faults.schedule import FaultSchedule
    from repro.graph import generators
    from repro.observability import digest as obs_digest
    from repro.observability.spans import SpanRecorder
    from repro.partition import degree_aware
    from repro.partition.one_d import OneDPartition
    from repro.partition.two_d import TwoDPartition
    from repro.runtime.clock import SimClock
    from repro.runtime.comm import Communicator
    from repro.runtime.network import Network
    from repro.runtime.trace import TraceRecorder
    from repro.server import protocol
    from repro.server.service import BfsService
    from repro.session import BfsSession
    from repro.utils import segmented
    from repro.wire.base import WireCodec

    t = tracer
    t.wrap_function(generators.build_graph, "graph.build_graph")
    t.wrap_method(TwoDPartition, "__init__", "partition.build")
    t.wrap_method(OneDPartition, "__init__", "partition.build")
    t.wrap_function(degree_aware.degree_aware_relabeling, "partition.build")

    t.wrap_method(BfsSession, "__init__", "session.init")
    t.wrap_method(BfsSession, "bfs", "session.traverse", lambda *a, **k: {"width": 1})
    t.wrap_method(
        BfsSession, "bfs_many", "session.traverse",
        lambda self, sources, *a, **k: {"width": len(sources)},
    )

    t.wrap_function(level_sync.run_bfs, "bfs.run_bfs")
    t.wrap_function(msbfs.run_ms_bfs, "bfs.run_ms_bfs")
    for attr in ("start", "step", "rebind", "assemble_levels"):
        t.wrap_family(level_sync.LevelSyncEngine, (attr,), f"bfs.{attr}")
    t.wrap_function(segmented.segmented_unique, "utils.segmented_unique")

    t.wrap_family(FoldCollective, ("fold",), "collectives.fold")
    t.wrap_family(ExpandCollective, ("expand",), "collectives.expand")

    t.wrap_method(Communicator, "__init__", "runtime.new_comm")
    for attr in ("exchange", "exchange_arrays", "exchange_summaries"):
        t.wrap_method(Communicator, attr, f"runtime.{attr}")
    for attr in ("allreduce_sum", "allreduce_flag", "allreduce_min"):
        t.wrap_method(Communicator, attr, "runtime.allreduce")
    for attr in ("charge_compute", "charge_compute_many"):
        t.wrap_method(Communicator, attr, "runtime.charge_compute")
    for attr in ("replicate_checkpoint", "recover_crashes"):
        t.wrap_method(Communicator, attr, "runtime.checkpoint")
    t.wrap_family(Network, ("round_times", "prepare_pairs"), "runtime.network")
    t.wrap_method(SimClock, "sync", "runtime.clock_sync")

    t.wrap_family(WireCodec, ("encode", "decode"), "wire.codec")
    for attr in list(FaultSchedule.__dict__):
        if attr == "__init__" or not attr.startswith("_"):
            t.wrap_method(FaultSchedule, attr, "faults.schedule")

    for attr in ("begin", "end", "span"):
        t.wrap_method(SpanRecorder, attr, "observability.span")
    _wrap_message_recorder(t, TraceRecorder)
    t.wrap_function(obs_digest.levels_digest, "observability.levels_digest")

    t.wrap_method(BfsService, "submit", "server.submit")
    t.wrap_method(BfsResult, "query_view", "server.query_view")
    t.wrap_method(msbfs.MsBfsResult, "query_view", "server.query_view")
    t.wrap_method(QueryResult, "to_dict", "server.to_dict")
    t.wrap_method(protocol.Query, "to_json", "server.protocol")
    t.wrap_method(protocol.QueryReply, "to_json", "server.protocol")
    t.wrap_method(protocol.QueryReply, "from_json", "server.protocol")
    t.wrap_function(protocol.decode_request, "server.protocol")


def _wrap_message_recorder(tracer: Tracer, recorder_cls: type) -> None:
    """Time the per-message recorder that ``observe="messages"`` installs.

    ``TraceRecorder.install`` already overrides ``exchange`` on the
    communicator instance, so putting a span around *that* override leaves
    the instance exactly as overridden as it was.
    """
    original = recorder_cls.__dict__["install"]

    @functools.wraps(original)
    def install_and_wrap(self):
        had = "exchange" in vars(self.comm)
        out = original(self)
        if not had and "exchange" in vars(self.comm):
            self.comm.exchange = tracer._sync(
                self.comm.exchange, "observability.trace_exchange"
            )
        return out

    tracer._set(recorder_cls, "install", install_and_wrap)


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def tree(spans: list[list]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(duration, self_time, parent_index)`` of each span (-1 = root)."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    dur = np.fromiter((r[END] - r[START] for r in spans), float, len(spans))
    parent = np.fromiter(
        (index.get(id(r[PARENT]), -1) for r in spans), np.int64, len(spans)
    )
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(spans))
    return dur, dur - covered, parent


def totals(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """Per span name: ``(calls, inclusive seconds, self seconds)``."""
    dur, self_time, _ = tree(spans)
    out: dict[str, list] = {}
    for rec, d, s in zip(spans, dur, self_time):
        row = out.setdefault(rec[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d
        row[2] += s
    return {name: tuple(row) for name, row in out.items()}


#: spans written to one Chrome trace (a viewer chokes long before memory does)
MAX_TRACE_SPANS = 100_000


def write_chrome_trace(tracer: Tracer, path, start: int = 0) -> None:
    """Write the spans from index ``start`` on (where the timed rounds
    begin; the first ``MAX_TRACE_SPANS`` of them) and the intervals as
    Chrome-trace JSON: open in chrome://tracing or ui.perfetto.dev."""
    spans = tracer.spans[start:start + MAX_TRACE_SPANS]
    if start + len(spans) < len(tracer.spans):
        print(f"{path}: wrote the first {len(spans)} of "
              f"{len(tracer.spans) - start} timed spans")
    _, self_time, parent = tree(spans)
    op_of: list = []
    events = []
    origin = spans[0][START] if spans else 0.0
    for i, rec in enumerate(spans):
        args = dict(rec[ARGS] or {})
        op_of.append(args.get("op") if parent[i] < 0 else op_of[parent[i]])
        args.update(parent=int(parent[i]), op=op_of[i],
                    self_us=round(self_time[i] * 1e6, 1))
        events.append({
            "name": rec[NAME], "cat": rec[NAME].split(".")[0], "ph": "X",
            "ts": (rec[START] - origin) * 1e6,
            "dur": (rec[END] - rec[START]) * 1e6,
            "pid": 0, "tid": rec[THREAD], "args": args,
        })
    timed = (iv for iv in tracer.intervals if iv[1] >= origin)
    for k, (name, start, end) in enumerate(timed):
        common = {"name": name, "cat": name.split(".")[0], "pid": 0, "tid": 0,
                  "id": k}
        events.append({**common, "ph": "b", "ts": (start - origin) * 1e6})
        events.append({**common, "ph": "e", "ts": (end - origin) * 1e6})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
