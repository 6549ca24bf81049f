"""Collective interfaces, the two array drivers, and the name registry.

Every collective is a *routing program*: for a group of ``G`` members, a
few lines of index arithmetic naming, round by round, which block travels
from which member to which (``_rounds``), plus — for the reducing folds —
the shape of the set-union rings that run first (``_rings``).  Routing is
data-independent, so a program never sees a payload.

The drivers own everything else.  All groups run in *lockstep*: round
``r`` of every group is one merged exchange, so disjoint communicator
groups (all processor-rows of the mesh, say) contend for torus links in
the same simulated round, exactly as they would on the real machine.
State is pooled: every payload of every group sits in one flat array with
CSR bounds, a round's wire messages are ``(src, dst, starts, stops)``
arrays in the lockstep order — groups ascending, then source member, then
destination, empty messages skipped — and results come back as CSR.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import CommunicationError
from repro.runtime.comm import Communicator
from repro.utils.segmented import range_indices, segmented_unique


class _Lockstep:
    """One collective run over equal-size disjoint groups: member ``g`` of
    group ``i`` is segment ``i * size + g``, held by rank ``ranks[.]``."""

    def __init__(self, comm: Communicator, groups: list[list[int]], phase: str) -> None:
        self.comm, self.phase = comm, phase
        sizes = {len(group) for group in groups}
        if len(sizes) != 1:
            raise CommunicationError(
                f"lockstep groups must share one size, got {sorted(sizes)}"
            )
        self.ranks = np.asarray(groups, dtype=np.int64).ravel()
        self.ngroups = len(groups)
        self.size = len(groups[0])
        self.nseg = self.ranks.size
        ordered = np.sort(self.ranks)
        if (
            self.nseg and (ordered[0] < 0 or ordered[-1] >= comm.nranks)
        ) or (ordered[1:] == ordered[:-1]).any():
            raise CommunicationError(
                f"lockstep groups must hold distinct ranks in [0, {comm.nranks})"
            )
        #: barrier set of a round — ``None`` (no participant indexing)
        #: when the groups cover the whole machine, as the engine's do
        self.participants = None if self.nseg == comm.nranks else ordered


def _forward(
    lock: _Lockstep,
    program: _Program,
    rounds,
    bflat: np.ndarray,
    bstarts: np.ndarray,
    bsizes: np.ndarray,
    first_round: int = 0,
    bmasks: np.ndarray | None = None,
):
    """Run a program's forwarding rounds over pooled, immutable blocks.

    Block ``i * nblocks + k`` (group ``i``'s block ``k``) is ``bsizes[.]``
    entries of ``bflat`` from ``bstarts[.]``; blocks never change, a round
    only names which of them each message carries, so a message is one
    gather of its non-empty blocks in table order — and where every block
    ends up is known without running a round.  A mask column ``bmasks``
    (parallel to ``bflat``) is gathered with the same index and rides
    each round beside the vertex ids.  Blocks travel *on schedule*: a
    chunk the fault layer withheld still moves on (the level is rolled
    back anyway).  Only a ``lossy`` program that had chunks withheld
    returns the ones that did arrive, as ``(destination segments,
    payload, payload masks, starts, stops)``; ``None``: all were
    delivered.
    """
    size, ngroups = lock.size, lock.ngroups
    nblocks = bsizes.size // ngroups
    group_base = np.arange(ngroups, dtype=np.int64)[:, None] * nblocks
    survivors = None
    for index, (src, dst, block) in enumerate(rounds, first_round):
        blk = (group_base + block).ravel()
        keep = np.flatnonzero(bsizes[blk])
        group, entry = np.divmod(keep, max(src.size, 1))
        blk = blk[keep]
        sizes = bsizes[blk]
        src_seg = group * size + src[entry]
        dst_seg = group * size + dst[entry]
        participants, active = lock.participants, ngroups
        if program.idle_groups_leave:
            busy = np.flatnonzero(np.bincount(group, minlength=ngroups))
            if busy.size == 0:
                break
            if busy.size < ngroups:
                active = busy.size
                participants = np.sort(lock.ranks.reshape(ngroups, size)[busy].ravel())
        # one wire message per run of equal (src, dst): [head, tail) entries
        pair = src_seg * size + dst[entry]
        cut = np.flatnonzero(pair[1:] != pair[:-1]) + 1
        head = np.concatenate(([0], cut))[: keep.size]
        tail = np.concatenate((cut, [keep.size]))[: keep.size]
        idx, offsets = range_indices(bstarts[blk], sizes)
        payload = bflat[idx]
        words = None if bmasks is None else bmasks[idx]
        with lock.comm.obs.span(f"round {index}", cat="round", phase=lock.phase, groups=active):
            arrived = lock.comm.exchange_arrays(
                lock.ranks[src_seg[head]], lock.ranks[dst_seg[head]], payload,
                offsets[head], offsets[tail], lock.phase, participants=participants,
                masks=words,
            )
        if program.lossy and arrived is not None:
            msg, starts, stops = arrived
            survivors = dst_seg[head][msg], payload, words, starts, stops
    return survivors


def _regroup(
    flat: np.ndarray,
    dest: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    ndest: int,
    masks: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Blocks ``flat[starts[k]:starts[k] + sizes[k]]`` -> CSR by ``dest[k]``,
    the mask column (parallel to ``flat``, if any) gathered alike."""
    live = np.flatnonzero(sizes)
    order = live[np.argsort(dest[live], kind="stable")]
    idx, offsets = range_indices(starts[order], sizes[order])
    bounds = offsets[np.searchsorted(dest[order], np.arange(ndest + 1))]
    return flat[idx], bounds, None if masks is None else masks[idx]


def _ring_key_bits(nchunk: int, cflat: np.ndarray, b: int) -> tuple[int, int]:
    """Widths ``(rbits, vbits)`` of the union rings' round and vertex fields.

    A contribution's key is ``(chunk << (vbits + rbits)) | (vertex <<
    rbits) | round`` (:func:`_union_rings`), which must fit a non-negative
    ``int64``; a fold it would not fit is refused here, before anything
    is charged.
    """
    domain = int(cflat.max()) + 1 if cflat.size else 1
    rbits, vbits = (b - 1).bit_length(), (domain - 1).bit_length()
    if (nchunk - 1).bit_length() + vbits + rbits > 63:
        raise CommunicationError(
            f"union-ring keys need more than 63 bits: nchunk={nchunk}, "
            f"domain={domain}, b={b}"
        )
    return rbits, vbits


def _union_rings(
    lock: _Lockstep, shape: tuple[int, int], csizes: np.ndarray, cflat: np.ndarray,
    bits: tuple[int, int], deliver: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce-scatter over rings with set-union as the reduction.

    Every group is an ``a x b`` subgrid (member ``r * b + c``) whose rows
    are rings of ``b`` members.  The *bundle* for column ``k`` — one lane
    per final destination ``(r', k)`` — starts at the member in column
    ``k + 1`` and travels its row's ring exactly once; every member it
    visits unions its own contributions in, eliminating duplicate vertex
    ids while the message is in flight.  Each member sends exactly one
    bundle per round, ``b - 1`` rounds in all.  Returns CSR over chunk
    ``seg * a + r'``: member ``(r, c)`` ends up holding, reduced over its
    row, the chunk for every ``(r', c)``.  ``shape = (1, G)`` is the
    paper's union-fold ring, whose last round *is* the delivery
    (``deliver``).

    Routing is data-independent and a bundle only grows, so the rings run
    in one pass.  Every contribution is one packed ``int64`` key, ``bits =
    (rbits, vbits)`` wide in its low fields (:func:`_ring_key_bits`)::

        (chunk << (vbits + rbits)) | (vertex << rbits) | round

    One segmented unique keeps the first key of each (chunk, vertex):
    the union in chunk-then-vertex order, each vertex tagged with its
    *first arrival* round.  Shifts and masks decode it; round ``t``'s
    bundle sizes are cumulative counts of first arrivals, and all ``b -
    1`` rounds are one stacked exchange.
    """
    a, b = shape
    comm, size, nseg, ranks = lock.comm, lock.size, lock.nseg, lock.ranks
    nchunk = nseg * a
    rbits, vbits = bits
    shift = vbits + rbits
    # Slot seg * size + dest of member (r, c) joins the bundle for (r', k)
    # (dest = r' * b + k) in round (c - k - 1) % b (0 = priming, t + 1 =
    # ring round t), and member (r, k) ends up holding it: one key head
    # per non-empty slot, the vertex field filled in per contribution.
    used = np.flatnonzero(csizes > 0)  # a mask's nonzero is the fast one
    seg = used // size  # with a product, not divmod: NumPy's divmod is slower
    dest = used - seg * size
    col, k = seg % b, dest % b
    head = ((seg - col + k) * a + dest // b) << shift | (col - k - 1) % b
    keys = np.repeat(head, csizes[used])
    keys |= cflat << rbits
    with comm.obs.span("union", cat="phase"):
        keys = segmented_unique(keys, rbits)
        joined = keys & ((1 << rbits) - 1)
        flat = (keys >> rbits) & ((1 << vbits) - 1)
        chunk_of = keys >> shift
    del keys
    counts = np.bincount(chunk_of, minlength=nchunk)
    bounds = np.zeros(nchunk + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    comm.stats.record_duplicates(cflat.size - flat.size)
    if b == 1:
        return flat, bounds
    # Bundle F (the a chunks member F ends up holding) carries in round t
    # what joined by round t.  Bundles with content are numbered by a
    # per-chunk lookup and land in a round-major table of (round, holder)
    # cells: the rounds' messages, handed over as the table they are.
    present = counts.reshape(nseg, a).any(axis=1)
    moving = np.flatnonzero(present)
    bundle = np.repeat(np.cumsum(present) - 1, a)[chunk_of]
    joined_by = np.bincount(bundle * b + joined, minlength=moving.size * b)
    sent = np.zeros((b - 1) * nseg, dtype=np.int64)
    sent[_ring_cells(nseg, b)[moving].ravel()] = np.cumsum(
        joined_by.reshape(-1, b)[:, :-1], axis=1
    ).ravel()
    del bundle, joined_by
    # the raw codec reads sizes only, so the cells index no buffer
    payload, starts = flat, np.broadcast_to(np.int64(0), (b - 1, nseg))
    if comm.wire.name != "raw":
        # a content-pricing codec reads every round's bundles: each lane
        # of the union holds what had joined by that round, in order
        carried = np.flatnonzero(sent)
        round_of = carried // nseg
        member = carried - round_of * nseg
        col = member % b
        lane = (member - col + (col - 1 - round_of) % b)[:, None] * a + np.arange(a)
        lengths = np.diff(bounds)[lane]
        idx, _ = range_indices(bounds[lane].ravel(), lengths.ravel())
        payload = flat[idx[joined[idx] <= np.repeat(round_of, lengths.sum(axis=1))]]
        starts = np.zeros(sent.size, dtype=np.int64)
        starts[carried] = np.cumsum(sent[carried]) - sent[carried]
        starts = starts.reshape(b - 1, nseg)
    sent = sent.reshape(b - 1, nseg)
    col = np.arange(nseg, dtype=np.int64) % b
    succ_rank = ranks[np.arange(nseg) - col + (col + 1) % b]
    if deliver:
        # the last round hands every member its own chunk
        comm.stats.record_delivery_bulk(succ_rank, sent[-1], lock.phase)
    comm.exchange_arrays(
        ranks, succ_rank, payload, starts, sent if payload is flat else starts + sent,
        lock.phase,
        participants=lock.participants,
        population=comm.network.prepare_pairs(ranks, succ_rank),
    )
    return flat, bounds


@functools.lru_cache(maxsize=16)
def _ring_cells(nseg: int, b: int) -> np.ndarray:
    """Where each bundle travels: entry ``[F, t]`` is the round-major cell
    ``t * nseg + h`` of the ring member ``h`` that holds bundle ``F`` (the
    one member ``F`` ends up holding) in round ``t`` — for ``F`` in column
    ``k``, the member in column ``(k + 1 + t) % b`` of ``F``'s ring."""
    seg = np.arange(nseg, dtype=np.int64)[:, None]
    t = np.arange(b - 1, dtype=np.int64)
    k = seg % b
    cells = t * nseg + seg - k + (k + 1 + t) % b
    cells.flags.writeable = False
    return cells


class _Program:
    """What both families share: a registry name, rounds, two switches."""

    name: str = "base"
    #: a group with nothing in flight sits out the remaining rounds
    idle_groups_leave: bool = False
    #: rounds hand over only the wire chunks that arrived (single-hop
    #: programs); forwarding programs deliver on schedule
    lossy: bool = False

    def _rounds(self, size: int):
        """The forwarding rounds, in order, as ``(src, dst, block)`` arrays
        of in-group member indices: entry ``k`` moves block ``block[k]``
        from member ``src[k]`` to member ``dst[k]``.  Entries are in the
        sender's carry order; one wire message is a run of equal pairs."""
        return ()


class FoldCollective(_Program):
    """All-to-all / reduce-scatter-like collective for the fold step.

    A fold program is an optional set-union ring phase (:meth:`_rings`)
    followed by forwarding rounds (:meth:`_rounds`) over the blocks
    ``o * G + d`` — what member ``o`` holds for member ``d``.
    """

    def _rings(self, size: int) -> tuple[int, int] | None:
        """``(a, b)`` subgrid of the union rings run first, if any."""
        return None

    def fold(
        self,
        comm: Communicator,
        groups: list[list[int]],
        csizes: np.ndarray,
        cflat: np.ndarray,
        phase: str = "fold",
        sieve=None,
        masks: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Run the collective on equal-size disjoint ``groups`` in lockstep.

        ``csizes[(i * size + g) * size + d]`` is the payload length member
        ``g`` of group ``i`` sends to in-group destination ``d``, and
        ``cflat`` holds the payloads back to back in slot order (values
        must be non-negative, e.g. vertex ids).  Returns what every member
        ends up with as CSR ``(flat, bounds, masks)`` over segment ``i *
        size + g``, local hand-offs included: the sorted set-union for the
        reducing programs, every arrival (duplicates too) for the others.
        ``masks`` is an optional mask-word column parallel to ``cflat``
        that travels with its vertices (``None`` in, ``None`` out); the
        set-union rings and the sieve act on vertices alone, so they
        refuse one.

        ``sieve`` is an optional :class:`repro.bfs.sieve.PooledSieve`:
        every contribution is probed against its sender's shadow of the
        destination's visited set before the first round; what the
        destination already visited never enters a chunk, and could only
        have been a duplicate there — the result's *fresh* content stays.
        """
        lock = _Lockstep(comm, groups, phase)
        size, nseg = lock.size, lock.nseg
        if csizes.size != nseg * size:
            raise CommunicationError(
                f"{nseg} members of {size}-member groups need {nseg * size} "
                f"payload slots, got {csizes.size}"
            )
        shape = self._rings(size)
        if masks is not None and (sieve is not None or shape is not None):
            raise CommunicationError(
                f"the {self.name!r} fold cannot carry a mask column"
                + (" through a sieve" if sieve is not None else "")
            )
        if shape is not None:
            # before the sieve charges: it only drops contributions
            bits = _ring_key_bits(nseg * shape[0], cflat, shape[1])
        if sieve is not None and cflat.size:
            slot_all = np.repeat(np.arange(nseg * size, dtype=np.int64), csizes)
            senders = lock.ranks[slot_all // size]
            keep = sieve.keep_mask(senders, cflat)
            comm.charge_compute_many(hash_lookups=np.bincount(senders, minlength=comm.nranks))
            dropped = int(keep.size - keep.sum())
            if dropped:
                comm.stats.record_sieved(dropped)
                cflat = cflat[keep]
                csizes = np.bincount(slot_all[keep], minlength=csizes.size)
        rounds = list(self._rounds(size))
        first_round = 0
        if shape is not None:
            a, b = shape
            cflat, bounds = _union_rings(
                lock, shape, csizes, cflat, bits, deliver=not rounds
            )
            if not rounds:
                return cflat, bounds, None
            # member (r, c) now holds lane r': its block for (r', c)
            holder, lane = np.divmod(np.arange(nseg * a, dtype=np.int64), a)
            csizes = np.zeros(nseg * size, dtype=np.int64)
            csizes[holder * size + lane * b + holder % b] = np.diff(bounds)
            first_round = b - 1
        bstarts = np.cumsum(csizes) - csizes
        survivors = _forward(
            lock, self, rounds, cflat, bstarts, csizes, first_round, masks
        )
        # Whatever the route, every block ends up at its destination;
        # self-addressed ones are local hand-offs, not deliveries.
        holder, dest = np.divmod(np.arange(nseg * size, dtype=np.int64), size)
        dest += holder - holder % size
        handed = holder == dest
        if survivors is not None:
            arrived_to, payload, words, starts, stops = survivors
            dest = np.concatenate((dest[handed], arrived_to))
            bstarts = np.concatenate((bstarts[handed], cflat.size + starts))
            csizes = np.concatenate((csizes[handed], stops - starts))
            cflat = np.concatenate((cflat, payload))
            if masks is not None:
                masks = np.concatenate((masks, words))
            handed = np.arange(dest.size) < nseg
        sent = np.flatnonzero(~handed & (csizes > 0))
        if sent.size:
            comm.stats.record_delivery_bulk(lock.ranks[dest[sent]], csizes[sent], phase)
        return _regroup(cflat, dest, bstarts, csizes, nseg, masks)


class ExpandCollective(_Program):
    """All-gather-like collective for the expand step.

    Every member contributes one block — the ``block`` a round names is
    the origin member index — and ends up with every peer's.  (The
    engine's *direct* expand, one personalized round filtered per
    destination, is not a forwarding program; it lives in
    ``LevelSyncEngine._expand_messages``.)
    """

    def expand(
        self,
        comm: Communicator,
        groups: list[list[int]],
        flat: np.ndarray,
        bounds: np.ndarray,
        phase: str = "expand",
        masks: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Run the collective on equal-size disjoint ``groups`` in lockstep.

        ``(flat, bounds)`` is a CSR over the communicator's *ranks* (the
        engine's pooled frontier): rank ``r`` contributes
        ``flat[bounds[r]:bounds[r + 1]]``, with the optional mask-word
        column ``masks`` beside it.  Returns, as CSR ``(flat, bounds,
        masks)`` over ranks again, what every rank received — each group
        peer's non-empty block exactly once, its own not included.
        """
        lock = _Lockstep(comm, groups, phase)
        if bounds.size != comm.nranks + 1:
            raise CommunicationError(
                f"expected CSR bounds over {comm.nranks} ranks, got {bounds.size - 1}"
            )
        size, ranks, sizes = lock.size, lock.ranks, np.diff(bounds)
        _forward(
            lock, self, self._rounds(size), flat, bounds[ranks], sizes[ranks],
            bmasks=masks,
        )
        # Whatever the route, every member ends up with each peer's block,
        # and every receipt is a delivery.
        member, origin = np.divmod(np.arange(size * size, dtype=np.int64), size)
        peers = member != origin
        base = np.arange(lock.ngroups, dtype=np.int64)[:, None] * size
        dest = ranks[(base + member[peers]).ravel()]
        origin = ranks[(base + origin[peers]).ravel()]
        sizes = sizes[origin]
        if sizes.any():
            comm.stats.record_delivery_bulk(dest, sizes, phase)
        return _regroup(flat, dest, bounds[origin], sizes, comm.nranks, masks)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_EXPANDS: dict[str, type] = {}
_FOLDS: dict[str, type] = {}


def register_expand(cls: type) -> type:
    """Class decorator: register an :class:`ExpandCollective` by its ``name``."""
    _EXPANDS[cls.name] = cls
    return cls


def register_fold(cls: type) -> type:
    """Class decorator: register a :class:`FoldCollective` by its ``name``."""
    _FOLDS[cls.name] = cls
    return cls


def _instantiate(table: dict[str, type], family: str, name: str, kwargs: dict):
    try:
        return table[name](**kwargs)
    except KeyError:
        raise CommunicationError(
            f"unknown {family} collective {name!r}; available: {sorted(table)}"
        ) from None


def get_expand(name: str, **kwargs) -> ExpandCollective:
    """Instantiate the expand collective registered under ``name``."""
    return _instantiate(_EXPANDS, "expand", name, kwargs)


def get_fold(name: str, **kwargs) -> FoldCollective:
    """Instantiate the fold collective registered under ``name``."""
    return _instantiate(_FOLDS, "fold", name, kwargs)
