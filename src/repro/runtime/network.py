"""Network cost engine: routes messages, models contention, charges time.

A *round* is a set of point-to-point transfers that are in flight
simultaneously (all the sends of one collective phase).  For every
transfer we route through the task mapping onto the physical topology,
count how many transfers cross each directed link, and slow each transfer
down by the maximum load along its path — a first-order store-and-share
contention model for the BlueGene/L torus.

The analysis is fully vectorised: each directed (src, dst) pair is
interned once — given a *pair id* and routed as an array of small integer
*link ids* (at most ``6 * num_nodes`` directed links exist, so ids stay
dense) — a round's link loads come from a single ``bincount`` over every
link the round crosses, and whole transfer *patterns* — the (src, dst)
sequence of a round, which recurs every BFS level for a given collective
— are memoised with their per-transfer hop counts and contention factors.
Only the byte counts change level to level, so a repeated pattern costs
one fused array expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError
from repro.machine.bluegene import MachineModel
from repro.machine.mapping import TaskMapping

#: the most bytes the memoised round patterns may hold, so that a
#: long-lived session's cache stays bounded (a 4 x 4 mesh's patterns take
#: well under a megabyte; a 32 x 32 mesh fills it in about ten batches)
_PATTERN_CACHE_BYTES = 64 << 20


def _padded(row: np.ndarray, values: np.ndarray, nrows: int, pad: int) -> np.ndarray:
    """``values`` grouped by ascending ``row`` into ``pad``-padded rows."""
    count = np.bincount(row, minlength=nrows)
    out = np.full((nrows, max(int(count.max(initial=0)), 1)), pad, dtype=np.int64)
    out[row, np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)] = values
    return out


@dataclass(eq=False, slots=True)
class PairPopulation:
    """Pre-analysed routes for a fixed (src, dst) pair population.

    Collectives whose every round draws its wire transfers from one fixed
    pair set (a ring's member -> successor pairs) prepare the population
    once and then charge each round by *indexing* into it, skipping the
    per-round route resolution entirely:

    * ``ids[k]`` — input pair ``k``'s id in the preparing network
      (:meth:`Network.pair_ids`), the key of its per-pair columns;
    * ``latency[k]`` — input pair ``k``'s time before its bytes count,
      ``alpha + hops * per_hop`` under the preparing network's model;
    * ``links[indptr[k]:indptr[k+1]]`` — pair ``k``'s link ids (CSR, so
      the per-round load analysis touches only real links);
    * ``lens[k]`` — pair ``k``'s link count (``np.diff(indptr)``, at
      least 1: no two ranks share a node);
    * ``full_cont[k]`` — pair ``k``'s contention when the *whole*
      population is in flight at once (the common case in a collective's
      heavy rounds, where no chunk is empty — then the per-round load
      analysis collapses to one gather);
    * ``disjoint`` — no physical link is shared by two pairs of the
      population.  Then *any* subset of pairs in flight together sees a
      per-link load of at most 1, i.e. contention is identically 1.0 and
      no load analysis is needed at all;
    * ``ring`` — ``(pred, succ)`` once :meth:`ring_pred` has found the
      population to be a ring's member -> successor pairs, ``(None,
      None)`` once it has found it not to be; ``None`` before it is asked;
    * ``sets`` — built on the first table pricing: ``(users, sets_of)``,
      each distinct set of pairs sharing a link as a row of ``users``, and
      the rows each pair is in as a row of ``sets_of`` (both padded).
    """

    ids: np.ndarray
    latency: np.ndarray
    links: np.ndarray
    indptr: np.ndarray
    lens: np.ndarray
    full_cont: np.ndarray
    disjoint: bool
    ring: tuple[np.ndarray | None, np.ndarray | None] | None = None
    sets: tuple[np.ndarray, np.ndarray] | None = None

    def ring_pred(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
        """For pairs ``src[k] -> dst[k]`` (the arrays the population was
        prepared from) whose destinations are their sources, each once —
        a ring's member -> successor pairs — ``pred[k]``, the pair that
        delivers to pair ``k``'s source; ``None`` for any other population.
        Worked out on the first call only: no other population pays for it.
        """
        if self.ring is None:
            order = np.argsort(dst)
            ends = dst[order]
            self.ring = None, None
            if np.array_equal(np.sort(src), ends) and (ends[1:] != ends[:-1]).all():
                pred = order[np.searchsorted(ends, src)]
                succ = np.empty_like(pred)
                succ[pred] = np.arange(pred.size)
                self.ring = pred, succ
        return self.ring[0]

    def table_contention(
        self, active: np.ndarray, cells: tuple[np.ndarray, np.ndarray] | None = None
    ) -> np.ndarray | float:
        """Contention of the pairs over at most 64 rounds in flight back to
        back, ``active[t, k]`` marking pair ``k`` in flight in round ``t``:
        the ``(R, P)`` table, or with ``cells = (rounds, pairs)`` (index
        arrays of active cells) the contention of those cells only
        (``1.0`` for a link-disjoint population).

        A pair's contention is the most transfers any link of its route
        carries in its round: 1 on a link only it uses, and on a shared
        link the number of that link's users in flight.  Round ``t`` is
        bit ``t`` of a pair's word, so the sets' in-flight counts are
        thresholds — "at least ``c`` users" — built by one OR/AND pass per
        user column over every set; a pair's contention is 1 plus the
        thresholds above 1 that one of its sets reached.
        """
        if self.disjoint:
            return 1.0
        npairs = self.lens.size
        if self.sets is None:
            pair = np.repeat(np.arange(npairs), self.lens)
            shared = np.bincount(self.links)[self.links] > 1
            order = np.lexsort((pair[shared], self.links[shared]))
            link = np.unique(self.links[shared][order], return_inverse=True)[1]
            users = np.unique(_padded(link, pair[shared][order], link.max() + 1, npairs), axis=0)
            row, col = np.nonzero(users < npairs)
            order = np.argsort(users[row, col], kind="stable")
            self.sets = users, _padded(users[row, col][order], row[order], npairs, len(users))
        users, sets_of = self.sets
        nrounds = active.shape[0]
        # byte j of a pair's word holds rounds 8j .. 8j + 7, bit i round 8j + i
        packed = np.zeros((8, npairs), dtype=np.uint8)
        flags = active.view(np.uint8)
        for i in range(min(8, nrounds)):
            rows = flags[i::8]
            packed[: rows.shape[0]] |= rows << i
        bits = np.zeros(npairs + 1, dtype=np.uint64)  # the last: sets' padding
        bits[:-1] = np.ascontiguousarray(packed.T).view(np.uint64).ravel()
        # at_least[c]: the rounds in which a set has more than c users in
        # flight, with one more row never reached (the padding of sets_of)
        nusers = users.shape[1]
        at_least = np.zeros((nusers, len(users) + 1), dtype=np.uint64)
        for i in range(nusers):
            x = bits[users[:, i]]
            for c in range(i, 0, -1):
                at_least[c, :-1] |= at_least[c - 1, :-1] & x
            at_least[0, :-1] |= x
        if cells is None:
            contention = np.ones((npairs, nrounds), dtype=np.min_scalar_type(nusers))
        else:
            # only the pairs in flight are read back, each cell a bit of its
            # pair's word
            carrying = np.flatnonzero(bits[:-1])
            if 2 * carrying.size > npairs:
                carrying = slice(None)  # most pairs carry: read every pair back
            sets_of = sets_of[carrying]
            words = np.zeros(npairs, dtype=np.uint64)
            shift, pair = cells
            shift = shift.astype(np.uint64)
            contention = np.ones(pair.size, dtype=np.uint64)
        for c in range(1, nusers):
            if not at_least[c].any():  # no set has more than c users in flight
                break
            reached = at_least[c][sets_of[:, 0]]
            for j in range(1, sets_of.shape[1]):
                reached |= at_least[c][sets_of[:, j]]
            if cells is None:
                contention += np.unpackbits(
                    reached.view(np.uint8).reshape(-1, 8), axis=1, count=nrounds,
                    bitorder="little",
                )
            else:
                words[carrying] = reached
                contention += (words[pair] >> shift) & np.uint64(1)
        return contention.T if cells is None else contention


def _dim_steps(
    a: np.ndarray, b: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised e-cube per-dimension decision: (step sign, hop count).

    Matches ``Torus3D._dim_step`` exactly (ties go forward)."""
    fwd = (b - a) % dim
    bwd = (a - b) % dim
    return np.where(fwd <= bwd, 1, -1), np.minimum(fwd, bwd)


class Network:
    """Charges simulated time for rounds of transfers over a mapped topology."""

    __slots__ = ("mapping", "model", "_num_links",
                 "_pattern_cache", "_pattern_bytes", "_population_cache",
                 "_keys", "_key_ids", "_starts", "_lens", "_links")

    def __init__(self, mapping: TaskMapping, model: MachineModel) -> None:
        self.mapping = mapping
        self.model = model
        #: dense directed-link id space: ``node * 6 + dim * 2 + (step > 0)``
        self._num_links = 6 * mapping.torus.num_nodes
        #: (src-seq, dst-seq) -> (hops, contention) per-transfer arrays,
        #: least recently used first, and the bytes they hold
        self._pattern_cache: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}
        self._pattern_bytes = 0
        #: (src-seq, dst-seq) -> prepared PairPopulation (ring pair sets
        #: recur every level)
        self._population_cache: dict[tuple[bytes, bytes], PairPopulation] = {}
        #: the pair table: sorted ``src * P + dst`` keys and each one's pair
        #: id, and per id the CSR (start, length) of its route in one
        #: concatenated link-id array — all append-only but the sort
        self._keys = np.empty(0, dtype=np.int64)
        self._key_ids = np.empty(0, dtype=np.int64)
        self._starts = np.empty(0, dtype=np.int64)
        self._lens = np.empty(0, dtype=np.int64)
        self._links = np.empty(0, dtype=np.int64)

    def hops(self, src: int, dst: int) -> int:
        """Physical hop distance between logical ranks."""
        return self.mapping.hops(src, dst)

    def round_times_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        multipliers: np.ndarray | None = None,
        population: PairPopulation | None = None,
        pop_idx: np.ndarray | None = None,
        rounds: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-native round analysis: per-rank times + per-transfer seconds.

        ``src``/``dst``/``nbytes`` are parallel arrays (``nbytes`` is the
        on-wire byte count of each transfer); ``multipliers``, when given,
        is parallel too.  Self-sends (``src == dst``) cost 0.0.

        ``rounds``: CSR bounds over the transfers for a call that prices
        ``R`` rounds at once — round ``t`` is transfers ``rounds[t]:rounds[t
        + 1]``, in flight together, each with its own load analysis (the
        chunks of split messages, which may repeat a pair in a round).
        The per-rank times then come back as ``(R, P)`` matrices whose row
        ``t`` is, bit for bit, what pricing round ``t`` alone returns.
        ``None``: one round, per-rank vectors.  A ring's unsplit rounds are
        priced as a table instead (:meth:`round_times_table`).

        ``population``/``pop_idx`` (one round only): transfer ``k`` is pair
        ``pop_idx[k]`` of a prepared :class:`PairPopulation` (no self-sends
        allowed) — latencies come from the population table, and
        contention from one load count over the round's links, or is
        identically 1.0 for a link-disjoint population.  Same floats as
        the generic analysis.
        """
        nranks = self.mapping.grid.size
        wire = None
        if population is not None:
            contention = self._population_contention(population, pop_idx)
        else:
            wire = src != dst
            if rounds is None and wire.all():  # one round, no hand-offs
                hops, contention = self._pattern(
                    np.ascontiguousarray(src, dtype=np.int64),
                    np.ascontiguousarray(dst, dtype=np.int64),
                )
            else:
                hops = np.zeros(src.size, dtype=np.float64)
                contention = np.ones(src.size, dtype=np.float64)
                # contention is per round: one memoised pattern each
                cuts = [0, src.size] if rounds is None else rounds.tolist()
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    at = lo + np.flatnonzero(wire[lo:hi])
                    if at.size:
                        hops[at], contention[at] = self._pattern(
                            np.ascontiguousarray(src[at], dtype=np.int64),
                            np.ascontiguousarray(dst[at], dtype=np.int64),
                        )
        model = self.model
        # MachineModel.message_time_bytes term by term, so the floats match
        # the scalar path: (alpha + hops * per_hop) + contention * nbytes / bandwidth
        seconds = np.multiply(contention, nbytes, dtype=np.float64)
        del contention
        seconds /= model.bandwidth
        if population is None:
            latency = hops * model.per_hop  # hops may be the memoised pattern's
            latency += model.alpha
            seconds += latency
        else:
            seconds += population.latency[pop_idx]
        if multipliers is not None:
            seconds *= multipliers
        if wire is not None and not wire.all():
            seconds[~wire] = 0.0
        # bincount accumulates each rank's transfers in traversal order,
        # round by round, like a per-round np.add.at
        if rounds is None:
            send_time = np.bincount(src, weights=seconds, minlength=nranks)
            return send_time, np.bincount(dst, weights=seconds, minlength=nranks), seconds
        counts = np.diff(rounds)
        size = counts.size * nranks
        key = np.repeat(np.arange(0, size, nranks), counts)
        key += src
        send_time = np.bincount(key, weights=seconds, minlength=size).reshape(-1, nranks)
        key += dst - src
        recv_time = np.bincount(key, weights=seconds, minlength=size).reshape(-1, nranks)
        return send_time, recv_time, seconds

    def round_times_table(
        self,
        population: PairPopulation,
        active: np.ndarray,
        nbytes: np.ndarray,
        multipliers: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A ring's rounds priced as a ``(round, pair)`` table.

        Cell ``(t, k)`` is pair ``k``'s message in round ``t`` of at most
        64 rounds in flight back to back — ``active[t, k]`` marks the
        cells that carry one, ``nbytes[t, k]`` its on-wire bytes and
        ``multipliers[t, k]`` (when given) its link multiplier.  The
        population must be a ring's (:meth:`PairPopulation.ring_pred`
        found its ``pred``): every rank then sends and receives at most one
        message a round.  Returns ``(send, base)`` tables: ``send[t, k]``
        is pair ``k``'s seconds, what its source spends sending in round
        ``t`` (0.0 for an empty cell), and ``base[t, k]`` that rank's round
        time, the larger of its sending and its receiving — pair
        ``pred[k]``'s seconds.  Round ``t``'s rows are, bit for bit, the
        per-rank send times and the larger of the send and receive times
        :meth:`round_times_arrays` gives that round's messages alone.

        Each carrying cell costs ``contention * bytes / bandwidth +
        latency`` (times the multiplier), the term order of the
        per-message analysis, with contention from the population's
        shared-link bit sets.  A table more than an eighth full is priced
        whole; a sparser one cell by cell, then scattered into zeroed
        tables.
        """
        pred, succ = population.ring or (None, None)
        if pred is None:
            raise CommunicationError(
                "table pricing needs a ring population: every destination one "
                "pair's source (PairPopulation.ring_pred)"
            )
        if active.shape[0] > 64:
            raise CommunicationError(
                f"a priced table holds at most 64 rounds, got {active.shape[0]}"
            )
        bandwidth = self.model.bandwidth
        if 8 * np.count_nonzero(active) > active.size:
            send = np.multiply(population.table_contention(active), nbytes, dtype=np.float64)
            send /= bandwidth
            send += population.latency
            send *= active  # an empty cell's seconds stay 0.0: no latency
            if multipliers is not None:
                send *= multipliers
            base = np.take(send, pred, axis=1)
            return send, np.maximum(send, base, out=base)
        cells = np.flatnonzero(active)
        width = active.shape[1]
        rnd = cells // width
        pair = cells - rnd * width
        seconds = np.multiply(
            population.table_contention(active, (rnd, pair)), nbytes.ravel()[cells],
            dtype=np.float64,
        )
        seconds /= bandwidth
        seconds += population.latency[pair]
        if multipliers is not None:
            seconds *= multipliers.ravel()[cells]
        send = np.zeros(active.shape, dtype=np.float64)
        send.ravel()[cells] = seconds
        base = send.copy()
        # pair k's message is what its successor's source receives
        cells += succ[pair] - pair
        base.ravel()[cells] = np.maximum(base.ravel()[cells], seconds)
        return send, base

    @staticmethod
    def _population_contention(
        population: PairPopulation, pop_idx: np.ndarray
    ) -> np.ndarray | float:
        """Per-transfer contention of one round's population transfers."""
        if population.disjoint or pop_idx.size == 0:
            return 1.0
        if pop_idx.size == population.lens.size:
            # The whole population is in flight: the load analysis was
            # done at preparation time.
            return population.full_cont[pop_idx]
        lens = population.lens[pop_idx]
        out_off = np.concatenate(([0], np.cumsum(lens)))
        gidx = np.arange(out_off[-1], dtype=np.int64)
        gidx += np.repeat(population.indptr[pop_idx] - out_off[:-1], lens)
        act = population.links[gidx]
        # per-pair max link load over each CSR run (every run is non-empty)
        cont = np.maximum.reduceat(np.bincount(act)[act], out_off[:-1])
        return cont.astype(np.float64)

    # ------------------------------------------------------------------ #
    # pattern analysis
    # ------------------------------------------------------------------ #
    def _pattern(
        self, wsrc: np.ndarray, wdst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-transfer (hops, contention) for one round's wire transfers.

        Contention depends only on the round's (src, dst) multiset, not on
        message sizes, so the result is memoised on the pair sequence, the
        least recently used patterns giving way once the cache holds
        :data:`_PATTERN_CACHE_BYTES`.
        """
        key = (wsrc.tobytes(), wdst.tobytes())
        cache = self._pattern_cache
        cached = cache.pop(key, None)
        if cached is None:
            # wire pairs only: every route has at least one link (no two
            # ranks share a node), so no reduceat run is empty
            links, indptr, lens = self._routes(self.pair_ids(wsrc, wdst))
            loads = np.bincount(links, minlength=self._num_links)
            contention = np.maximum.reduceat(loads[links], indptr[:-1])
            cached = (lens.astype(np.float64), contention.astype(np.float64))
            # an entry is four arrays of one 8-byte item per transfer
            self._pattern_bytes += 4 * len(key[0])
            while self._pattern_bytes > _PATTERN_CACHE_BYTES and cache:
                self._pattern_bytes -= 4 * cache.pop(next(iter(cache)))[0].nbytes
        cache[key] = cached
        return cached

    def prepare_pairs(self, src: np.ndarray, dst: np.ndarray) -> PairPopulation:
        """Pre-analyse a recurring pair population (one route per input pair).

        Interns any unseen routes in one batch (so no later round pays an
        incremental pair-table rebuild) and returns a
        :class:`PairPopulation` aligned with the input arrays, for use
        with :meth:`round_times_arrays`'s ``population`` fast path.  The
        input must not contain self-sends or repeated pairs.  Pure
        analysis: charges nothing, changes no result.
        """
        cache_key = (src.tobytes(), dst.tobytes())
        cached = self._population_cache.get(cache_key)
        if cached is not None:
            return cached
        ids = self.pair_ids(src, dst)
        links, indptr, lens = self._routes(ids)
        loads = np.bincount(links)
        full_cont = np.empty(0, dtype=np.float64)
        if ids.size:
            full_cont = np.maximum.reduceat(loads[links], indptr[:-1]).astype(np.float64)
        population = PairPopulation(
            ids=ids,
            latency=self.model.alpha + lens.astype(np.float64) * self.model.per_hop,
            links=links,
            indptr=indptr,
            lens=lens,
            full_cont=full_cont,
            disjoint=loads.size == 0 or int(loads.max()) <= 1,
        )
        self._population_cache[cache_key] = population
        return population

    def pair_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """The id of each directed rank pair ``src[i] -> dst[i]``.

        A pair's id is fixed the first time any caller asks for it — new
        pairs are routed then and numbered on from the last id, in
        ``src * P + dst`` order — so ids index every per-pair column kept
        beside the routes, here and in the fault layer.
        """
        nranks = self.mapping.grid.size
        keys = src * nranks + dst
        pos = np.searchsorted(self._keys, keys)
        known = pos < self._keys.size
        known[known] = self._keys[pos[known]] == keys[known]
        if not known.all():
            new = np.unique(keys[~known])
            nodes = self.mapping.rank_to_node
            links, lens = self._batch_route(nodes[new // nranks], nodes[new % nranks])
            self._starts = np.concatenate(
                (self._starts, self._links.size + np.cumsum(lens) - lens)
            )
            self._lens = np.concatenate((self._lens, lens))
            self._links = np.concatenate((self._links, links))
            at = np.searchsorted(self._keys, new)
            self._key_ids = np.insert(
                self._key_ids, at, np.arange(self._lens.size - new.size, self._lens.size)
            )
            self._keys = np.insert(self._keys, at, new)
            pos = np.searchsorted(self._keys, keys)
        return self._key_ids[pos]

    def _routes(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The routes of pairs ``ids`` as CSR: ``(links, indptr, lens)``,
        pair ``k``'s link ids being ``links[indptr[k]:indptr[k + 1]]``."""
        lens = self._lens[ids]
        indptr = np.concatenate(([0], np.cumsum(lens)))
        gather = np.arange(indptr[-1], dtype=np.int64)
        gather += np.repeat(self._starts[ids] - indptr[:-1], lens)
        return self._links[gather], indptr, lens

    def _batch_route(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dimension-ordered routes of node pairs ``a[k] -> b[k]``, batched.

        Returns ``(links, lens)``: one concatenated link-id array (pair
        ``k``'s route is the ``lens[k]`` ids after ``lens[:k].sum()``, in
        x-then-y-then-z traversal order) plus the per-pair hop counts.
        Link ids use the arithmetic encoding ``node * 6 + dim * 2 +
        (step > 0)`` — a bijection with the directed physical links the
        scalar :meth:`~repro.machine.torus.Torus3D.route` walks, so link
        loads (and hence contention) are unchanged.
        """
        X, Y, Z = self.mapping.torus.dims
        ax, bx = a % X, b % X
        ay, by = (a // X) % Y, (b // X) % Y
        az, bz = a // (X * Y), b // (X * Y)
        sx, cx = _dim_steps(ax, bx, X)
        sy, cy = _dim_steps(ay, by, Y)
        sz, cz = _dim_steps(az, bz, Z)
        lens = cx + cy + cz
        pair_off = np.concatenate(([0], np.cumsum(lens)))
        out = np.empty(int(pair_off[-1]), dtype=np.int64)

        def emit(cnt, start, step, dim_axis, base, stride, dim, dim_off):
            # the t-th link of this dimension leaves coordinate
            # start + t*step (mod dim); earlier dimensions are already at
            # their targets (folded into ``base``), later ones still at
            # their starts
            total = int(cnt.sum())
            if not total:
                return
            offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            t = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt)
            step_r = np.repeat(step, cnt)
            coord = (np.repeat(start, cnt) + t * step_r) % dim
            u = np.repeat(base, cnt) + coord * stride
            out[np.repeat(pair_off[:-1] + dim_off, cnt) + t] = (
                u * 6 + 2 * dim_axis + (step_r > 0)
            )

        emit(cx, ax, sx, 0, X * (ay + Y * az), 1, X, np.int64(0))
        emit(cy, ay, sy, 1, bx + X * Y * az, X, Y, cx)
        emit(cz, az, sz, 2, bx + X * by, X * Y, Z, cx + cy)
        return out, lens
