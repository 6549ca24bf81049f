"""SPMD multiprocessing backend for the 2D-partitioned BFS.

Runs Algorithm 2 with *real* parallelism: one OS process per rank, a
level-synchronous exchange protocol through a central hub in the parent
process, NumPy int64 buffers as the only payload (the mpi4py "fast path"
idiom).  The message pattern is identical to the simulated engine's direct
collectives — expand along processor-columns, fold along processor-rows —
so this backend doubles as an executable specification of what a real MPI
port performs each level.  A worker holds one rank's view of the
partition's pooled tables: it reads its ``*_bounds`` slices and its
partial edge lists through ``stored_lists``, as the simulated engine
does, and keeps its sent flags over its own slots of the row universe.

Protocol (every rank sends the same message kinds in the same order, so
the hub never deadlocks):

    repeat:
        ("xchg", {dst: buffer})  x expand rounds   # 1 direct / R-1 ring
        ("xchg", {dst: buffer})  x fold rounds     # 1 direct / C-1 union-ring
        ("sum", (count, failed))  # termination allreduce + fault flag
    until the global sum is 0, then:
        ("done", (owned_levels, fault_report, sieved))

Supported collectives: ``expand_collective`` in {"direct", "ring"} and
``fold_collective`` in {"direct", "union-ring"} — the direct patterns and
the paper's ring patterns, whose per-level round counts are identical on
every rank (R-1 / C-1), keeping the lockstep protocol trivially
deadlock-free.

Fault injection (``faults=``) mirrors the simulator's transient-drop
semantics chunk for chunk.  Each worker asks its own
:class:`~repro.faults.FaultSchedule` over the plan the parent sampled,
with the destination rank as the pair id (every pair a worker sends on
starts at its own rank); because draws are keyed by ``(src, dst,
transmission-index)``, the per-link decision sequences agree across
backends regardless of execution order.  Loss semantics follow the
simulated collectives exactly: *direct* expand/fold chunks are
inbox-driven there, so an unrecovered drop withholds the payload; *ring*
and *union-ring* chunks only account the drop (the simulated schedules
compute their data flow locally), so the payload is delivered anyway.
Either way the level is flagged, every worker rolls back to its
level-entry snapshot, and the level replays with fresh draws — the hub
counts the rollback and raises :class:`~repro.errors.FaultError` after
``max_level_retries`` failures of one level.  The level-entry snapshot
covers every piece of mutable traversal state, including the sent-cache
and the communication-sieve shadow, so the sieve composes with fault
schedules exactly as in the simulated engines (the sieved tally
accumulates across replayed attempts, mirroring
``CommStats.abort_level``).  Rank crashes (``crash_rate > 0``) are
rejected: crash recovery needs the simulator's global clock and
spare-rank model.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.bfs.bottom_up import _scan_stored_columns
from repro.bfs.direction import BOTTOM_UP, TOP_DOWN, DirectionPolicy
from repro.bfs.options import BfsOptions
from repro.errors import CommunicationError, FaultError, SearchError
from repro.faults import FaultPlan, FaultReport, FaultSchedule, FaultSpec
from repro.graph.csr import CsrGraph
from repro.partition.two_d import TwoDPartition
from repro.types import LEVEL_DTYPE, UNREACHED, VERTEX_DTYPE, GridShape
from repro.utils.arrays import in_sorted
from repro.utils.segmented import range_indices
from repro.wire import WireCodec, resolve_wire

_POLL_INTERVAL = 0.05


def spmd_bfs(
    graph: CsrGraph,
    grid: GridShape | tuple[int, int],
    source: int,
    *,
    opts: BfsOptions | None = None,
    wire: WireCodec | str | None = None,
    faults: FaultSpec | str | None = None,
    return_report: bool = False,
    return_sieved: bool = False,
    timeout: float = 120.0,
) -> np.ndarray | tuple:
    """Run a 2D-partitioned BFS with one OS process per rank.

    Returns the global level array (identical to the simulated engine and
    the serial oracle).  ``wire`` selects a :mod:`repro.wire` codec; every
    inter-rank payload is *really* encoded by the sender and decoded by
    the receiver, so the codecs are exercised under true parallelism.
    ``faults`` injects seeded transient drops that agree chunk for chunk
    with the simulator (see the module docstring); ``return_report=True``
    returns ``(levels, FaultReport-or-None)`` instead of bare levels.
    With ``opts.use_sieve`` the workers run the communication sieve in
    lockstep with the simulated engines (same shadows, same dropped
    candidates); ``return_sieved=True`` appends the machine-wide count of
    sieved fold candidates to the return tuple so tests can assert exact
    cross-backend parity.  ``timeout`` bounds the whole run; a hung or
    dead worker raises :class:`CommunicationError` instead of
    deadlocking, as does an option the workers cannot honour (a
    collective outside the supported pairs, ``opts.buffer_capacity``,
    ``opts.checkpoint=False`` under faults, rank crashes, or bottom-up
    levels under faults).  Every mesh, ``P = 1`` included, runs the same
    forked workers.
    """
    if not isinstance(grid, GridShape):
        grid = GridShape(*grid)
    if not (0 <= source < graph.n):
        raise SearchError(f"source {source} out of range [0, {graph.n})")
    opts = opts or BfsOptions()
    if isinstance(faults, str):
        faults = FaultSpec.parse(faults)
    if faults is not None and faults.crash_rate > 0:
        raise CommunicationError(
            "spmd backend does not support rank crashes (crash recovery "
            "needs the simulator's global clock and spare-rank model); "
            "use the simulated engine for crash_rate > 0"
        )
    if opts.expand_collective not in ("direct", "ring"):
        raise CommunicationError(
            f"spmd backend supports expand in {{'direct', 'ring'}}, "
            f"got {opts.expand_collective!r}"
        )
    if opts.fold_collective not in ("direct", "union-ring"):
        raise CommunicationError(
            f"spmd backend supports fold in {{'direct', 'union-ring'}}, "
            f"got {opts.fold_collective!r}"
        )
    if opts.buffer_capacity is not None:
        raise CommunicationError(
            "spmd backend sends every payload whole, so buffer_capacity="
            f"{opts.buffer_capacity} would chunk no message (and, under "
            "faults, change no drop); use the simulated engine for fixed "
            "message buffers"
        )
    if faults is not None and opts.checkpoint is False:
        raise CommunicationError(
            "spmd backend always rolls a failed level back to its entry "
            "snapshot, so checkpoint=False cannot be honoured under faults; "
            "use the simulated engine to run without checkpoints"
        )
    policy = DirectionPolicy.coerce(opts.direction)
    if policy.may_go_bottom_up and faults is not None:
        raise CommunicationError(
            "direction-optimizing BFS does not support fault injection "
            "(mirroring the simulated engines); use direction='top-down' "
            "with faults"
        )
    codec = resolve_wire(wire)
    partition = TwoDPartition(graph, grid)
    nranks = grid.size
    plan = FaultPlan.sample(faults, nranks) if faults is not None else None

    ctx = mp.get_context("fork")
    pipes = [ctx.Pipe(duplex=True) for _ in range(nranks)]
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(rank, partition, source, opts, codec, plan, pipes[rank][1]),
            daemon=True,
        )
        for rank in range(nranks)
    ]
    for w in workers:
        w.start()
    hub_ends = [p[0] for p in pipes]
    try:
        levels, report, sieved = _run_hub(hub_ends, workers, partition, timeout, plan)
        out: tuple = (levels,)
        if return_report:
            out = out + (report,)
        if return_sieved:
            out = out + (sieved,)
        return out if len(out) > 1 else levels
    finally:
        for w in workers:
            if w.is_alive():
                w.terminate()
            w.join(timeout=5)
        for end, (_, worker_end) in zip(hub_ends, pipes):
            end.close()
            worker_end.close()


# ---------------------------------------------------------------------- #
# hub (parent process)
# ---------------------------------------------------------------------- #
def _run_hub(
    conns,
    workers,
    partition: TwoDPartition,
    timeout: float,
    plan: FaultPlan | None = None,
) -> tuple[np.ndarray, FaultReport | None, int]:
    import time

    deadline = time.monotonic() + timeout
    nranks = len(conns)
    done_levels: dict[int, np.ndarray] = {}
    done_reports: dict[int, FaultReport | None] = {}
    total_sieved = 0
    # the hub plays the engine's role in the fault lifecycle: it counts
    # level rollbacks and enforces the per-level replay budget
    rollbacks = 0
    level = 0
    level_attempts = 0
    max_level_retries = plan.spec.max_level_retries if plan is not None else 0
    while len(done_levels) < nranks:
        batch = [_recv(conns[r], workers[r], deadline, r) for r in range(nranks)]
        kinds = {kind for kind, _ in batch}
        if kinds == {"xchg"}:
            inboxes: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(nranks)]
            for src, (_kind, sends) in enumerate(batch):
                for dst, payload in sends.items():
                    if not (0 <= dst < nranks):
                        raise CommunicationError(f"worker {src} addressed rank {dst}")
                    inboxes[dst].append((src, payload))
            for rank in range(nranks):
                conns[rank].send(inboxes[rank])
        elif kinds == {"sum"}:
            total = sum(count for _kind, (count, _failed) in batch)
            failed = any(flag for _kind, (_count, flag) in batch)
            if failed:
                rollbacks += 1
                level_attempts += 1
                if plan is not None and level_attempts > max_level_retries:
                    schedule = FaultSchedule(plan.spec, nranks, plan)
                    schedule.report.rollbacks = rollbacks
                    report = schedule.snapshot_report(0.0)
                    raise FaultError(
                        f"level {level} still failing after {max_level_retries} "
                        "replays; raise max_retries or max_level_retries",
                        report=report,
                    )
            else:
                level += 1
                level_attempts = 0
            for rank in range(nranks):
                conns[rank].send((total, int(failed)))
        elif kinds == {"done"}:
            for rank, (_kind, (levels, worker_report, sieved)) in enumerate(batch):
                done_levels[rank] = levels
                done_reports[rank] = worker_report
                total_sieved += int(sieved)
        else:
            raise CommunicationError(f"workers desynchronised: saw kinds {sorted(kinds)}")

    global_levels = np.full(partition.n, UNREACHED, dtype=LEVEL_DTYPE)
    for rank in range(nranks):
        global_levels[partition.owned_lo[rank] : partition.owned_hi[rank]] = done_levels[rank]

    report: FaultReport | None = None
    if plan is not None:
        # the construction-sampled fields (degraded links, stragglers, the
        # down link) come from the plan, as in the simulator; then fold in
        # the drop counters the workers tallied on the wire
        schedule = FaultSchedule(plan.spec, nranks, plan)
        merged = schedule.report
        for worker in done_reports.values():
            if worker is None:
                continue
            merged.injected += worker.injected
            merged.retries += worker.retries
            merged.recovered += worker.recovered
            merged.unrecovered += worker.unrecovered
        merged.rollbacks = rollbacks
        report = schedule.snapshot_report(0.0)
    return global_levels, report, total_sieved


def _recv(conn, worker, deadline: float, rank: int):
    import time

    while not conn.poll(_POLL_INTERVAL):
        if not worker.is_alive():
            raise CommunicationError(f"worker {rank} died (exitcode {worker.exitcode})")
        if time.monotonic() > deadline:
            raise CommunicationError(f"worker {rank} timed out")
    return conn.recv()


# ---------------------------------------------------------------------- #
# worker (one process per rank)
# ---------------------------------------------------------------------- #
def _worker_main(
    rank: int,
    partition: TwoDPartition,
    source: int,
    opts: BfsOptions,
    codec: WireCodec,
    plan: FaultPlan | None,
    conn,
) -> None:
    grid = partition.grid
    lo = int(partition.owned_lo[rank])
    levels = np.full(int(partition.owned_hi[rank]) - lo, UNREACHED, dtype=LEVEL_DTYPE)
    frontier = np.empty(0, dtype=VERTEX_DTYPE)
    if lo <= source < lo + levels.size:
        levels[source - lo] = 0
        frontier = np.array([source], dtype=VERTEX_DTYPE)

    mesh_row, mesh_col = grid.coords_of(rank)
    col_group = grid.col_members(mesh_col)
    row_group = grid.row_members(mesh_row)
    # Sent-neighbours flags (Section 2.4.3): one per slot of this rank's
    # row universe, the pooled slots row_bounds[rank]:row_bounds[rank + 1].
    row_lo = int(partition.row_bounds[rank])
    sent = (
        np.zeros(int(partition.row_bounds[rank + 1]) - row_lo, dtype=bool)
        if opts.use_sent_cache
        else None
    )
    # Communication sieve: this worker's shadow of its row peers' visited
    # sets, fed by their end-of-level summary broadcasts.  Own vertices
    # are never received, so self-addressed fold contributions always
    # pass — exactly the simulated PooledSieve semantics.
    shadow = np.zeros(partition.n, dtype=bool) if opts.use_sieve else None
    sieved = 0
    member_bounds = partition.dist.offsets[:: grid.rows]
    faults = None
    if plan is not None and plan.spec.drop_rate > 0:
        faults = FaultSchedule(plan.spec, plan.nranks, plan)
    # Direction policy inputs are the globally-allreduced totals every
    # worker already receives, so all ranks take the identical branch in
    # lockstep with no extra message (and with the simulated engines).
    policy = DirectionPolicy.coerce(opts.direction)
    direction_prev = TOP_DOWN
    global_frontier = 1  # the source
    global_unvisited = partition.n - 1

    level = 0
    while True:
        if faults is not None:
            # level-entry snapshot: frontier arrays are never mutated in
            # place, so only the level labels, the sent flags, and the
            # sieve shadow need copies (the sieved tally is deliberately
            # left out — like CommStats.abort_level it accumulates across
            # replayed attempts)
            snapshot = (
                levels.copy(),
                frontier,
                sent.copy() if sent is not None else None,
                shadow.copy() if shadow is not None else None,
            )
            # a chunk lost for good this level fails it
            lost = faults.report.unrecovered

        direction = policy.decide(
            level, global_frontier, global_unvisited, partition.n, direction_prev
        )
        if direction == BOTTOM_UP:
            fresh = _bottom_up_level(
                conn, rank, partition, row_group, col_group,
                levels, frontier, level, codec, faults,
            )
        else:
            # --- expand: share the frontier within the processor-column --- #
            fbar = _expand_phase(
                conn, rank, col_group, frontier, opts.expand_collective, codec, faults
            )

            # --- local discovery on partial edge lists: the distinct row
            # slots they hold, ascending, are the ascending neighbour set --- #
            gather, _ = range_indices(*partition.stored_lists(fbar, rank))
            slots = np.unique(partition.row_slots[gather])
            if sent is not None:
                slots = slots[~sent[slots - row_lo]]
                sent[slots - row_lo] = True
            neighbors = partition.row_ids[slots]
            if shadow is not None:
                # the sieve: candidates whose owner is already known to
                # have visited them never enter a fold contribution
                keep = ~shadow[neighbors]
                sieved += int(neighbors.size - keep.sum())
                neighbors = neighbors[keep]

            # --- fold: route neighbours to their owners along the row --- #
            bounds = np.searchsorted(neighbors, member_bounds)
            contrib = {
                m: neighbors[bounds[m] : bounds[m + 1]]
                for m in range(grid.cols)
                if bounds[m + 1] > bounds[m]
            }
            candidates = _fold_phase(
                conn, rank, row_group, contrib, opts.fold_collective, codec, faults
            )

            # --- label fresh vertices --- #
            fresh = candidates[levels[candidates - lo] == UNREACHED]
            levels[fresh - lo] = level + 1

            if shadow is not None:
                # --- sieve summaries: broadcast the freshly labelled
                # vertices to the row peers, mark what they broadcast.
                # One lockstep xchg round per top-down level (bottom-up
                # levels skip it, mirroring the simulated engines); the
                # round runs even with nothing fresh so the protocol
                # stays deadlock-free on the final level. --- #
                sends = (
                    {peer: fresh for peer in row_group if peer != rank}
                    if fresh.size
                    else {}
                )
                inbox = _exchange(conn, rank, sends, codec, None, lossy=True)
                for _src, payload in inbox:
                    shadow[payload] = True

        failed = int(faults.report.unrecovered > lost) if faults is not None else 0
        conn.send(("sum", (int(fresh.size), failed)))
        total, level_failed = conn.recv()
        if level_failed:
            # some rank lost a chunk for good: every worker rolls the
            # level back and replays it (fresh keyed draws — the stream
            # counters advanced, so the retry sees new coin flips)
            levels[:] = snapshot[0]
            frontier = snapshot[1]
            if sent is not None:
                sent[:] = snapshot[2]
            if shadow is not None:
                shadow[:] = snapshot[3]
            continue
        frontier = fresh
        direction_prev = direction
        global_frontier = total
        global_unvisited -= total
        level += 1
        if total == 0:
            break

    conn.send(("done", (levels, faults.report if faults is not None else None, sieved)))


def _bottom_up_level(
    conn,
    rank: int,
    partition: TwoDPartition,
    row_group: list[int],
    col_group: list[int],
    levels: np.ndarray,
    frontier: np.ndarray,
    level: int,
    codec: WireCodec,
    faults: FaultSchedule | None,
) -> np.ndarray:
    """One bottom-up level: exactly three lockstep ``xchg`` rounds.

    (1) frontier owned-lists travel along the processor **row** (the
    stored rows of this rank are vertices owned by its row peers);
    (2) unvisited owned-lists travel along the processor **column** (the
    stored columns are the column chunk those peers own); (3) each
    stored column still unvisited scans its partial row list for a
    frontier parent, and the finds travel to their owners within the
    column for de-duplication and labelling.  Mirrors
    :meth:`repro.bfs.level_sync.LevelSyncEngine._bottom_up` message for
    message.
    """
    lo = int(partition.owned_lo[rank])

    def merge(own: np.ndarray, inbox) -> np.ndarray:
        pieces = [own, *(payload for _src, payload in inbox)]
        return np.unique(np.concatenate(pieces)) if len(pieces) > 1 else own

    # round 1: frontier membership of the stored rows
    sends = {peer: frontier for peer in row_group if peer != rank and frontier.size}
    inbox = _exchange(conn, rank, sends, codec, faults, lossy=True)
    frontier_rows = merge(frontier, inbox)

    # round 2: unvisited state of the column chunk
    owned_unvisited = np.flatnonzero(levels == UNREACHED).astype(VERTEX_DTYPE) + lo
    sends = {
        peer: owned_unvisited
        for peer in col_group
        if peer != rank and owned_unvisited.size
    }
    inbox = _exchange(conn, rank, sends, codec, faults, lossy=True)
    unvisited_chunk = merge(owned_unvisited, inbox)

    # scan: stored columns still unvisited probe their partial row lists;
    # membership is tested over this rank's own tables, never an n-bitmap
    rows = partition.row_ids[partition.row_bounds[rank] : partition.row_bounds[rank + 1]]
    cols = partition.col_ids[partition.col_bounds[rank] : partition.col_bounds[rank + 1]]
    scan, _, found, _ = _scan_stored_columns(
        partition, rank, rank + 1,
        in_sorted(rows, frontier_rows), in_sorted(cols, unvisited_chunk),
    )
    found_v = scan[found]

    # round 3: finds travel to their owners (within the processor column)
    owners = partition.owner_of(found_v)
    sends = {
        int(o): found_v[owners == o]
        for o in np.unique(owners)
        if int(o) != rank
    }
    inbox = _exchange(conn, rank, sends, codec, faults, lossy=True)
    merged = merge(found_v[owners == rank], inbox)
    fresh = merged[levels[merged - lo] == UNREACHED]
    levels[fresh - lo] = level + 1
    return fresh


def _exchange(
    conn,
    rank: int,
    sends: dict[int, np.ndarray],
    codec: WireCodec,
    faults: FaultSchedule | None = None,
    lossy: bool = True,
) -> list[tuple[int, np.ndarray]]:
    """Round-trip one exchange through the hub with *real* encoded buffers.

    The sender serialises every payload through ``codec.encode`` and the
    receiver reconstructs it with ``codec.decode`` — bytes are the only
    thing that crosses the process boundary, so a codec bug cannot hide
    behind the simulator's byte accounting.

    With ``faults`` attached the payloads' fates are decided and counted
    by one :meth:`~repro.faults.FaultSchedule.plan_round`, pair id = the
    destination rank.  ``lossy=True`` (the direct collectives, whose
    simulated counterparts are inbox-driven) withholds unrecovered chunks
    from the hub; ``lossy=False`` (ring / union-ring, where the simulated
    schedules compute data flow locally) delivers them anyway — the drop
    is accounting-only, exactly as in the simulator.
    """
    delivered = [True] * len(sends)
    if faults is not None and sends:
        dst = np.fromiter(sends, dtype=np.int64, count=len(sends))
        _, delivered = faults.plan_round(np.full(dst.size, rank), dst, dst)
    encoded = {
        dst: codec.encode(arr)
        for (dst, arr), arrived in zip(sends.items(), delivered)
        if arrived or not lossy
    }
    conn.send(("xchg", encoded))
    return [(src, codec.decode(buf)) for src, buf in conn.recv()]


def _expand_phase(
    conn,
    rank: int,
    col_group: list[int],
    frontier: np.ndarray,
    mode: str,
    codec: WireCodec,
    faults: FaultSchedule | None = None,
) -> np.ndarray:
    """Column-group expand: direct personalized sends or an all-gather ring."""
    size = len(col_group)
    if size == 1:
        return frontier
    if mode == "direct":
        sends = {peer: frontier for peer in col_group if peer != rank and frontier.size}
        inbox = _exchange(conn, rank, sends, codec, faults, lossy=True)
        pieces = [frontier, *(payload for _src, payload in inbox)]
        return np.unique(np.concatenate(pieces)) if len(pieces) > 1 else frontier
    # ring all-gather: R-1 rounds, forward what arrived last round
    idx = col_group.index(rank)
    successor = col_group[(idx + 1) % size]
    in_hand = frontier
    gathered = [frontier]
    for _round in range(size - 1):
        sends = {successor: in_hand} if in_hand.size else {}
        inbox = _exchange(conn, rank, sends, codec, faults, lossy=False)
        in_hand = inbox[0][1] if inbox else np.empty(0, dtype=VERTEX_DTYPE)
        gathered.append(in_hand)
    return np.unique(np.concatenate(gathered))


def _fold_phase(
    conn,
    rank: int,
    row_group: list[int],
    contrib: dict[int, np.ndarray],
    mode: str,
    codec: WireCodec,
    faults: FaultSchedule | None = None,
) -> np.ndarray:
    """Row-group fold: direct personalized sends or the union reduce-scatter ring.

    ``contrib`` maps member index (mesh column) to the neighbours addressed
    to that member's owner.  Returns the merged candidates owned by this rank.
    """
    size = len(row_group)
    idx = row_group.index(rank)
    empty = np.empty(0, dtype=VERTEX_DTYPE)
    if size == 1:
        own = contrib.get(0, empty)
        return np.unique(own) if own.size else own
    if mode == "direct":
        sends = {
            row_group[m]: chunk
            for m, chunk in contrib.items()
            if m != idx and chunk.size
        }
        inbox = _exchange(conn, rank, sends, codec, faults, lossy=True)
        pieces = [contrib.get(idx, empty), *(payload for _src, payload in inbox)]
        merged = np.concatenate(pieces)
        return np.unique(merged) if merged.size else merged
    # union reduce-scatter ring (the paper's union-fold): the chunk for
    # destination d starts at member (d+1) % size and accumulates each
    # visited member's contribution via set-union.
    successor = row_group[(idx + 1) % size]
    dest = (idx - 1) % size
    chunk = contrib.get(dest, empty)
    if chunk.size:
        chunk = np.unique(chunk)
    result = empty
    for round_idx in range(size - 1):
        sends = {successor: chunk} if chunk.size else {}
        inbox = _exchange(conn, rank, sends, codec, faults, lossy=False)
        received = inbox[0][1] if inbox else empty
        dest = (idx - 2 - round_idx) % size
        own = contrib.get(dest, empty)
        merged = np.unique(np.concatenate([received, own])) if (
            received.size or own.size
        ) else empty
        if dest == idx:
            result = merged
            chunk = empty
        else:
            chunk = merged
    return result

