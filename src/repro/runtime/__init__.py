"""Virtual distributed runtime: per-rank clocks, messages, network, communicator.

This package is the substitute for MPI + real BlueGene/L hardware (see
DESIGN.md): ``P`` virtual ranks execute level-synchronously inside one
Python process, every message is materialised and counted exactly, and a
cost model charges simulated time for communication and computation.
"""

from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.comm import Communicator
from repro.runtime.stats import CommStats, LevelStats
from repro.runtime.trace import MessageEvent, TraceRecorder

__all__ = [
    "SimClock",
    "Network",
    "Communicator",
    "CommStats",
    "LevelStats",
    "MessageEvent",
    "TraceRecorder",
]
