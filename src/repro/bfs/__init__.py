"""Distributed breadth-first search: the paper's core contribution.

Public entry points:

* :func:`repro.bfs.serial.serial_bfs` — single-process oracle.
* :class:`repro.bfs.level_sync.LevelSyncEngine` — Algorithm 2 (2D edge
  partitioning); Algorithm 1 (1D) is its ``1 x P`` mesh (Section 2.2).
* :func:`repro.bfs.level_sync.run_bfs` — run the engine to completion.
* :func:`repro.bfs.bidirectional.run_bidirectional_bfs` — Section 2.3.
* :func:`repro.bfs.msbfs.run_ms_bfs` — batched multi-source traversal.
"""

from repro.bfs.options import BfsOptions
from repro.bfs.direction import DIRECTION_MODES, DirectionPolicy
from repro.bfs.result import BfsResult, BidirectionalResult, QueryResult
from repro.bfs.serial import serial_bfs
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.bfs.bidirectional import run_bidirectional_bfs
from repro.bfs.msbfs import MAX_BATCH, MsBfsResult, run_ms_bfs

__all__ = [
    "BfsOptions",
    "BfsResult",
    "BidirectionalResult",
    "DIRECTION_MODES",
    "DirectionPolicy",
    "QueryResult",
    "MAX_BATCH",
    "MsBfsResult",
    "run_ms_bfs",
    "serial_bfs",
    "LevelSyncEngine",
    "run_bfs",
    "run_bidirectional_bfs",
]
