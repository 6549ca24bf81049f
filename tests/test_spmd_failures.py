"""Failure-injection tests for the SPMD backend's hub protocol.

The hub must fail loudly — never hang — when a worker dies, stalls, or
desynchronises.  These tests drive :func:`_run_hub` and :func:`_recv`
directly with fake connections/processes so no real process needs to be
killed.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.backends.spmd import _recv, _run_hub
from repro.errors import CommunicationError
from repro.graph.csr import CsrGraph
from repro.partition.two_d import TwoDPartition
from repro.types import GridShape, LEVEL_DTYPE


class FakeConn:
    """Scripted one-way connection: yields queued messages, records sends."""

    def __init__(self, incoming=None):
        self.incoming = list(incoming or [])
        self.sent = []

    def poll(self, _timeout):
        return bool(self.incoming)

    def recv(self):
        return self.incoming.pop(0)

    def send(self, obj):
        self.sent.append(obj)


class FakeWorker:
    def __init__(self, alive=True, exitcode=None):
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self):
        return self._alive


def tiny_partition(p=2) -> TwoDPartition:
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    return TwoDPartition(CsrGraph.from_edges(4, edges), GridShape(1, p))


class TestRecv:
    def test_delivers_queued_message(self):
        conn = FakeConn([("sum", 1)])
        assert _recv(conn, FakeWorker(), time.monotonic() + 5, 0) == ("sum", 1)

    def test_dead_worker_raises(self):
        conn = FakeConn([])
        with pytest.raises(CommunicationError, match="died"):
            _recv(conn, FakeWorker(alive=False, exitcode=-9), time.monotonic() + 5, 3)

    def test_timeout_raises(self):
        conn = FakeConn([])
        with pytest.raises(CommunicationError, match="timed out"):
            _recv(conn, FakeWorker(alive=True), time.monotonic() - 1, 1)


def _done(levels):
    """A worker's final message: owned levels, drop counters, sieved count."""
    return ("done", (levels, None, 0))


class TestHubProtocol:
    def test_routes_exchange(self):
        part = tiny_partition(2)
        payload = np.array([7], dtype=np.int64)
        conns = [
            FakeConn([("xchg", {1: payload}), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
            FakeConn([("xchg", {}), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
        ]
        workers = [FakeWorker(), FakeWorker()]
        levels, report, sieved = _run_hub(conns, workers, part, timeout=5)
        assert levels.shape == (4,)
        assert report is None
        assert sieved == 0
        # rank 1 received [(0, payload)] in the routed inbox
        inbox = conns[1].sent[0]
        assert inbox[0][0] == 0 and inbox[0][1].tolist() == [7]

    def test_sum_reduction(self):
        part = tiny_partition(2)
        conns = [
            FakeConn([("sum", (3, 0)), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
            FakeConn([("sum", (4, 0)), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
        ]
        _run_hub(conns, [FakeWorker(), FakeWorker()], part, timeout=5)
        assert conns[0].sent[0] == (7, 0)
        assert conns[1].sent[0] == (7, 0)

    def test_sum_broadcasts_failure_flag(self):
        part = tiny_partition(2)
        conns = [
            FakeConn([("sum", (3, 0)), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
            FakeConn([("sum", (4, 1)), _done(np.zeros(2, dtype=LEVEL_DTYPE))]),
        ]
        _run_hub(conns, [FakeWorker(), FakeWorker()], part, timeout=5)
        # one worker lost a chunk: every worker is told to roll back
        assert conns[0].sent[0] == (7, 1)
        assert conns[1].sent[0] == (7, 1)

    def test_desync_raises(self):
        part = tiny_partition(2)
        conns = [FakeConn([("sum", (1, 0))]), FakeConn([("xchg", {})])]
        with pytest.raises(CommunicationError, match="desynchronised"):
            _run_hub(conns, [FakeWorker(), FakeWorker()], part, timeout=5)

    def test_bad_destination_raises(self):
        part = tiny_partition(2)
        conns = [
            FakeConn([("xchg", {5: np.array([1], dtype=np.int64)})]),
            FakeConn([("xchg", {})]),
        ]
        with pytest.raises(CommunicationError, match="addressed rank 5"):
            _run_hub(conns, [FakeWorker(), FakeWorker()], part, timeout=5)

    def test_assembles_levels_by_ownership(self):
        part = tiny_partition(2)
        lv0 = np.array([0, 1], dtype=LEVEL_DTYPE)
        lv1 = np.array([2, 3], dtype=LEVEL_DTYPE)
        conns = [FakeConn([_done(lv0)]), FakeConn([_done(lv1)])]
        levels, _report, _sieved = _run_hub(
            conns, [FakeWorker(), FakeWorker()], part, timeout=5
        )
        assert levels.tolist() == [0, 1, 2, 3]

    def test_level_retry_budget_exhaustion_raises(self):
        from repro.errors import FaultError
        from repro.faults import FaultPlan, FaultSpec

        part = tiny_partition(2)
        plan = FaultPlan.sample(FaultSpec(drop_rate=0.5, max_level_retries=2), 2)
        # every termination allreduce reports a failure: the hub must give
        # up after max_level_retries replays with a structured report
        failing = [("sum", (1, 1))] * 4
        conns = [FakeConn(list(failing)), FakeConn(list(failing))]
        with pytest.raises(FaultError, match="still failing") as excinfo:
            _run_hub(conns, [FakeWorker(), FakeWorker()], part, timeout=5, plan=plan)
        assert excinfo.value.report is not None
        assert excinfo.value.report.rollbacks == 3
