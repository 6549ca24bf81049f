"""Network cost engine: routes messages, models contention, charges time.

A *round* is a set of point-to-point transfers that are in flight
simultaneously (all the sends of one collective phase).  For every
transfer we route through the task mapping onto the physical topology,
count how many transfers cross each directed link, and slow each transfer
down by the maximum load along its path — a first-order store-and-share
contention model for the BlueGene/L torus.

The analysis is fully vectorised: each (src, dst) pair's route is interned
once as an array of small integer *link ids* (at most ``6 * num_nodes``
directed links exist, so ids stay dense), a round's link loads come from a
single ``bincount`` over every link the round crosses, and whole transfer
*patterns* — the (src, dst) sequence of a round, which recurs every BFS
level for a given collective — are memoised with their per-transfer hop
counts and contention factors.  Only the byte counts change level to
level, so a repeated pattern costs one fused array expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.bluegene import MachineModel
from repro.machine.mapping import TaskMapping


@dataclass(frozen=True, slots=True)
class PairPopulation:
    """Pre-analysed routes for a fixed (src, dst) pair population.

    Collectives whose every round draws its wire transfers from one fixed
    pair set (a ring's member -> successor pairs) prepare the population
    once and then charge each round by *indexing* into it, skipping the
    per-round route resolution entirely:

    * ``hops[k]`` — hop count of input pair ``k``;
    * ``links[indptr[k]:indptr[k+1]]`` — pair ``k``'s link ids (CSR, so
      the per-round load analysis touches only real links, no padding);
    * ``lens[k]`` — pair ``k``'s link count (``np.diff(indptr)``);
    * ``full_cont[k]`` — pair ``k``'s contention when the *whole*
      population is in flight at once (the common case in a collective's
      heavy rounds, where no chunk is empty — then the per-round load
      analysis collapses to one gather);
    * ``disjoint`` — no physical link is shared by two pairs of the
      population.  Then *any* subset of pairs in flight together sees a
      per-link load of at most 1, i.e. contention is identically 1.0 and
      no load analysis is needed at all.
    """

    hops: np.ndarray
    links: np.ndarray
    indptr: np.ndarray
    lens: np.ndarray
    full_cont: np.ndarray
    disjoint: bool


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

    __slots__ = ("mapping", "model", "_route_cache", "_num_links",
                 "_pattern_cache", "_population_cache",
                 "_pair_keys", "_pair_starts", "_pair_lens", "_pair_links")

    def __init__(self, mapping: TaskMapping, model: MachineModel) -> None:
        self.mapping = mapping
        self.model = model
        #: lazy tuple-list routes, kept for inspection/debugging callers only
        self._route_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: dense directed-link id space: ``node * 6 + dim * 2 + (step > 0)``
        self._num_links = 6 * mapping.torus.num_nodes
        #: (src-seq, dst-seq) -> (hops, contention) per-transfer arrays
        self._pattern_cache: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}
        #: (src-seq, dst-seq) -> prepared PairPopulation (ring pair sets
        #: recur every level; populations are immutable)
        self._population_cache: dict[tuple[bytes, bytes], PairPopulation] = {}
        #: interned (src * P + dst) pair table: sorted keys with parallel
        #: CSR (start, length) views into one concatenated link-id array
        self._pair_keys = np.empty(0, dtype=np.int64)
        self._pair_starts = np.empty(0, dtype=np.int64)
        self._pair_lens = np.empty(0, dtype=np.int64)
        self._pair_links = np.empty(0, dtype=np.int64)

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
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-native round analysis: per-rank times + per-transfer seconds.

        ``src``/``dst``/``nbytes`` are parallel arrays (``nbytes`` is the
        on-wire byte count of each transfer); ``multipliers``, when given,
        is parallel too.  Self-sends (``src == dst``) cost 0.0.

        ``population``/``pop_idx``: transfer ``k`` is pair ``pop_idx[k]``
        of a prepared :class:`PairPopulation` (``pop_idx=None`` means the
        transfers are the whole population in preparation order; no
        self-sends allowed) —
        hop counts come from the population table, and contention comes
        from the padded link matrix, or is identically 1.0 for a
        link-disjoint population.  Same floats as the generic analysis.
        """
        nranks = self.mapping.grid.size
        send_time = np.zeros(nranks, dtype=np.float64)
        recv_time = np.zeros(nranks, dtype=np.float64)
        per_transfer = np.zeros(src.shape[0], dtype=np.float64)
        if population is not None:
            if src.size == 0:
                return send_time, recv_time, per_transfer
            if pop_idx is None:
                # The whole population in preparation order — the common
                # heavy-round case, with zero per-round indexing.
                hops = population.hops
                contention = 1.0 if population.disjoint else population.full_cont
            elif population.disjoint:
                hops = population.hops[pop_idx]
                contention = 1.0
            elif pop_idx.size == population.lens.size:
                # The whole population is in flight: the load analysis was
                # done at preparation time.
                hops = population.hops[pop_idx]
                contention = population.full_cont[pop_idx]
            else:
                hops = population.hops[pop_idx]
                lens = population.lens[pop_idx]
                total = int(lens.sum())
                if total:
                    out_off = np.concatenate(([0], np.cumsum(lens)))
                    gidx = np.arange(total, dtype=np.int64)
                    gidx += np.repeat(
                        population.indptr[pop_idx] - out_off[:-1], lens
                    )
                    act = population.links[gidx]
                    loads = np.bincount(act)
                    # per-pair max link load over each CSR run; empty runs
                    # (ranks sharing a node) keep the generic path's 1.0
                    red_at = np.minimum(out_off[:-1], total - 1)
                    cont = np.maximum.reduceat(loads[act], red_at)
                    cont[lens == 0] = 1
                    contention = np.maximum(cont.astype(np.float64), 1.0)
                else:
                    contention = 1.0
            model = self.model
            seconds = (
                model.alpha
                + hops * model.per_hop
                + contention * nbytes.astype(np.float64) / model.bandwidth
            )
            if multipliers is not None:
                seconds = seconds * multipliers
            per_transfer[:] = seconds
            # bincount accumulates in traversal order like np.add.at but
            # runs a single fused pass
            send_time += np.bincount(src, weights=seconds, minlength=nranks)
            recv_time += np.bincount(dst, weights=seconds, minlength=nranks)
            return send_time, recv_time, per_transfer
        wire_mask = src != dst
        if not wire_mask.any():
            return send_time, recv_time, per_transfer
        if wire_mask.all():
            wsrc, wdst, wbytes = src, dst, nbytes
            wmult = multipliers
        else:
            wsrc, wdst, wbytes = src[wire_mask], dst[wire_mask], nbytes[wire_mask]
            wmult = None if multipliers is None else multipliers[wire_mask]

        hops, contention = self._pattern(
            np.ascontiguousarray(wsrc, dtype=np.int64),
            np.ascontiguousarray(wdst, dtype=np.int64),
        )
        model = self.model
        # Mirrors MachineModel.message_time_bytes term by term so the
        # vectorised floats match the scalar path bit for bit.
        seconds = (
            model.alpha
            + hops * model.per_hop
            + contention * wbytes.astype(np.float64) / model.bandwidth
        )
        if wmult is not None:
            seconds = seconds * wmult
        per_transfer[wire_mask] = seconds
        np.add.at(send_time, wsrc, seconds)
        np.add.at(recv_time, wdst, seconds)
        return send_time, recv_time, per_transfer

    # ------------------------------------------------------------------ #
    # pattern analysis
    # ------------------------------------------------------------------ #
    def _pattern(
        self, wsrc: np.ndarray, wdst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-transfer (hops, contention) for one round's wire transfers.

        Contention depends only on the round's (src, dst) multiset, not on
        message sizes, so the result is memoised on the pair sequence.
        """
        key = (wsrc.tobytes(), wdst.tobytes())
        cached = self._pattern_cache.get(key)
        if cached is not None:
            return cached
        # Resolve every pair against the interned pair table (one
        # searchsorted), routing only pairs seen for the first time.
        nranks = self.mapping.grid.size
        pair_keys = wsrc * nranks + wdst
        idx = np.searchsorted(self._pair_keys, pair_keys)
        idx_c = np.minimum(idx, max(self._pair_keys.size - 1, 0))
        known = (
            self._pair_keys[idx_c] == pair_keys
            if self._pair_keys.size
            else np.zeros(pair_keys.shape, dtype=bool)
        )
        if not known.all():
            self._intern_pairs(np.unique(pair_keys[~known]))
            idx = np.searchsorted(self._pair_keys, pair_keys)
        starts = self._pair_starts[idx]
        lengths = self._pair_lens[idx]
        total = int(lengths.sum())
        if total:
            out_offsets = np.concatenate(([0], np.cumsum(lengths)))
            gather = np.arange(total, dtype=np.int64)
            gather += np.repeat(starts - out_offsets[:-1], lengths)
            all_links = self._pair_links[gather]
        else:
            all_links = np.empty(0, dtype=np.int64)
        loads = np.bincount(all_links, minlength=self._num_links)
        contention = np.ones(lengths.size, dtype=np.float64)
        nonempty = lengths > 0
        if nonempty.all() and all_links.size:
            row_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            contention = np.maximum.reduceat(
                loads[all_links], row_starts
            ).astype(np.float64)
        elif all_links.size:
            # Degenerate: some route is empty (ranks sharing a node).
            offset = 0
            for i, length in enumerate(lengths):
                if length:
                    contention[i] = float(
                        loads[all_links[offset : offset + length]].max()
                    )
                    offset += length
        cached = (lengths.astype(np.float64), contention)
        self._pattern_cache[key] = cached
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
        nranks = self.mapping.grid.size
        keys = src * nranks + dst
        sorted_new = np.unique(keys)
        idx = np.searchsorted(self._pair_keys, sorted_new)
        idx_c = np.minimum(idx, max(self._pair_keys.size - 1, 0))
        known = (
            self._pair_keys[idx_c] == sorted_new
            if self._pair_keys.size
            else np.zeros(sorted_new.shape, dtype=bool)
        )
        if not known.all():
            self._intern_pairs(sorted_new[~known])
        idx = np.searchsorted(self._pair_keys, keys)
        starts = self._pair_starts[idx]
        lens = self._pair_lens[idx]
        total = int(lens.sum())
        indptr = np.concatenate(([0], np.cumsum(lens)))
        if total:
            gather = np.arange(total, dtype=np.int64)
            gather += np.repeat(starts - indptr[:-1], lens)
            all_links = self._pair_links[gather]
            loads = np.bincount(all_links)
            disjoint = int(loads.max()) <= 1
            red_at = np.minimum(indptr[:-1], total - 1)
            full_cont = np.maximum.reduceat(loads[all_links], red_at)
            full_cont[lens == 0] = 1
            full_cont = np.maximum(full_cont.astype(np.float64), 1.0)
        else:
            all_links = np.empty(0, dtype=np.int64)
            disjoint = True
            full_cont = np.ones(keys.size, dtype=np.float64)
        population = PairPopulation(
            hops=lens.astype(np.float64),
            links=all_links,
            indptr=indptr,
            lens=lens,
            full_cont=full_cont,
            disjoint=disjoint,
        )
        self._population_cache[cache_key] = population
        return population

    def _intern_pairs(self, new_keys: np.ndarray) -> None:
        """Route ``new_keys`` (sorted unique ``src * P + dst``, none interned
        yet) with the batch router and rebuild the key-sorted pair table once."""
        nranks = self.mapping.grid.size
        nodes = self.mapping.rank_to_node
        links, new_lens = self._batch_route(
            nodes[new_keys // nranks], nodes[new_keys % nranks]
        )
        new_starts = self._pair_links.size + np.concatenate(
            ([0], np.cumsum(new_lens)[:-1])
        )
        keys = np.concatenate((self._pair_keys, new_keys))
        starts = np.concatenate((self._pair_starts, new_starts))
        lens = np.concatenate((self._pair_lens, new_lens))
        order = np.argsort(keys, kind="stable")
        self._pair_keys = keys[order]
        self._pair_starts = starts[order]
        self._pair_lens = lens[order]
        self._pair_links = np.concatenate((self._pair_links, links))

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

    def _route(self, src: int, dst: int) -> list[tuple[int, int]]:
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            cached = self.mapping.torus.route(
                self.mapping.node_of(src), self.mapping.node_of(dst)
            )
            self._route_cache[key] = cached
        return cached
