"""Deterministic fault injection and recovery (`repro.faults`).

The paper's testbed is a 32,768-node BlueGene/L; at that scale the
interesting question is not whether the machine is perfect but how the
algorithm behaves when it is not — stragglers, degraded links, dropped
messages, and whole-node failures (see Buluç & Madduri's survey of
distributed-memory BFS for the modern version of the same concern).
This package injects those faults into the virtual runtime
*deterministically*: every decision is drawn from a seeded stream, so
identical seeds and schedules reproduce byte-identical fault counts and
simulated times.

Layout (split from the original single module):

* :mod:`repro.faults.spec` — :class:`FaultSpec`, the frozen declarative
  description of a fault workload, and the named :data:`FAULT_PRESETS`.
* :mod:`repro.faults.schedule` — :class:`FaultPlan`, what a spec's seed
  decides, and :class:`FaultSchedule`, the per-run
  stateful object the communicator consults on every wire message and at
  every crash boundary.
* :mod:`repro.faults.report` — :class:`FaultReport`, the
  graceful-degradation summary attached to every faulted result.
* :mod:`repro.faults.crash` — :class:`CrashEvent` and the keyed
  order-independent drop stream shared with the SPMD backend.
* :mod:`repro.faults.validate` — the end-to-end result validator
  (serial-BFS oracle, parent tree, message conservation, clock
  monotonicity).  Imported on demand; not re-exported here.
* :mod:`repro.faults.chaos` — randomized fault-schedule sampling and the
  chaos sweep behind the ``chaos`` entry of ``repro.harness.FIGURES``.
  Imported on demand.

Semantics on the wire (implemented in
:meth:`repro.runtime.comm.Communicator.exchange`):

* A *transient drop* loses one transmission of one message chunk.  The
  sender detects it by timeout (``retry_timeout * backoff**i`` simulated
  seconds for the i-th retry) and retransmits, up to ``max_retries``
  times; every wasted transmission and timeout is charged to the clocks
  as fault time.  A chunk that exhausts its retries is *unrecovered*:
  the data is lost and the BFS level must roll back to its checkpoint
  (see :class:`repro.bfs.level_sync.LevelSyncEngine`).
* A *degraded link* multiplies the wire cost of every message between
  one directed rank pair.
* A *permanent link-down* (from level ``down_level`` on) does not lose
  data — traffic is assumed rerouted around the dead link — but pays the
  detour: the pair's cost multiplier becomes ``down_detour_factor``.
* A *straggler* multiplies a rank's compute time; the excess is booked
  as fault time.
* A *rank crash* (``crash_rate > 0``) kills a whole rank at a seeded
  level and phase.  Survivors detect it by timeout, recover the dead
  rank's partition from its buddy's level-boundary checkpoint (spare
  takeover or shrink absorption), and replay the level.  See
  ``docs/FAULTS.md`` for the full protocol and cost accounting.

Reductions (``allreduce_*``) are assumed reliable — as on the real
machine's dedicated collective network — unless the spec sets
``collective_faults=True``, which lets crashes strike mid-reduction.
"""

from __future__ import annotations

from repro.faults.crash import CrashEvent, KeyedDropStream
from repro.faults.report import FaultReport
from repro.faults.schedule import FaultPlan, FaultSchedule
from repro.faults.spec import FAULT_PRESETS, FaultSpec

__all__ = [
    "FAULT_PRESETS",
    "CrashEvent",
    "FaultReport",
    "FaultPlan",
    "FaultSchedule",
    "FaultSpec",
    "KeyedDropStream",
]
