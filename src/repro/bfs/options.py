"""Configuration of a distributed BFS run."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bfs.direction import DirectionPolicy
from repro.errors import ConfigurationError

_EXPAND_NAMES = frozenset({"direct", "ring", "two-phase", "recursive-doubling"})
_FOLD_NAMES = frozenset({"direct", "ring", "union-ring", "two-phase", "bruck"})


@dataclass(frozen=True, slots=True)
class BfsOptions:
    """Algorithmic switches of the distributed BFS.

    The defaults correspond to the paper's recommended configuration:
    sparse per-destination expand (Section 2.2), union-fold reduce-scatter
    (Section 3.2.2), and the sent-neighbours cache (Section 2.4.3).  A
    batched traversal (:func:`~repro.bfs.msbfs.run_ms_bfs`) keeps the
    expand collective but runs every level top-down with the ``direct``
    fold, no sent cache and no sieve, whatever these options say, because
    its frontier carries a mask word per vertex that the set-union rings
    do not merge and that per-vertex state (sent flags, sieve shadows,
    bottom-up's unvisited scan) cannot track source by source.

    Parameters
    ----------
    expand_collective:
        ``"direct"`` (single-round personalized), ``"ring"`` (single
        all-gather ring), ``"two-phase"`` (Figure 3 grouped rings), or
        ``"recursive-doubling"`` (log-round Bruck all-gather baseline).
    fold_collective:
        ``"direct"`` (all-to-all), ``"ring"`` (personalized ring without
        reduction), ``"union-ring"`` (reduce-scatter with set-union),
        ``"two-phase"`` (Figure 2 grouped union rings), or ``"bruck"``
        (log-round all-to-all baseline).
    use_sent_cache:
        Keep per-rank track of neighbours already sent and never resend
        them (Section 2.4.3).
    use_sieve:
        Filter fold candidates against a sender-side shadow of each
        destination's visited set before they are encoded, so vertices
        the owner already visited in an earlier level never hit the wire
        (:mod:`repro.bfs.sieve`).  Requires a CSR-capable fold collective
        (``"union-ring"``).  It composes with fault injection: the
        shadows are checkpointed and restored with the level.  Labelled
        levels are byte-identical with the sieve on or off — only the
        fold traffic shrinks.  This is the sieve's only switch (the CLI's
        ``--sieve`` sets it).
    use_expand_filter:
        With the ``direct`` expand, only send a frontier vertex to column
        peers that hold non-empty partial edge lists for it (Section 2.2);
        off, every frontier vertex goes to all ``R - 1`` column peers (the
        dense all-gather the paper warns about) through the same one
        round.  Ignored by the forwarding collectives (ring / two-phase /
        recursive-doubling), which cannot filter per destination.
    buffer_capacity:
        Fixed message-buffer length in vertices (Section 3.1); ``None``
        means unbounded.  Oversized payloads are chunked, paying one
        latency per chunk.
    collective_shape:
        Optional explicit ``(a, b)`` subgrid shape for the two-phase
        collectives; default is the most-square factorisation.
    checkpoint:
        Level-boundary checkpoint/rollback policy under fault injection.
        ``None`` (default) enables it automatically when the attached
        fault schedule can drop messages; ``True`` forces it on;
        ``False`` disables it, turning an unrecovered message loss into a
        :class:`~repro.errors.FaultError`.
    direction:
        Per-level traversal direction policy
        (:class:`~repro.bfs.direction.DirectionPolicy`), or a bare mode
        name: ``"top-down"`` (default, the paper's algorithm),
        ``"bottom-up"``, ``"hybrid"`` (online Beamer α/β switch), or
        ``"model"`` (precomputed schedule; see
        :meth:`DirectionPolicy.model_for`).  Any policy that can choose
        bottom-up levels is incompatible with fault injection.
    """

    expand_collective: str = "direct"
    fold_collective: str = "union-ring"
    use_sent_cache: bool = True
    use_sieve: bool = False
    use_expand_filter: bool = True
    buffer_capacity: int | None = None
    collective_shape: tuple[int, int] | None = None
    checkpoint: bool | None = None
    direction: DirectionPolicy | str = "top-down"

    def __post_init__(self) -> None:
        if not isinstance(self.direction, DirectionPolicy):
            # frozen dataclass: coerce a bare mode name in place
            try:
                coerced = DirectionPolicy.coerce(self.direction)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(str(exc)) from None
            object.__setattr__(self, "direction", coerced)
        if self.expand_collective not in _EXPAND_NAMES:
            raise ConfigurationError(
                f"unknown expand collective {self.expand_collective!r}; "
                f"choose from {sorted(_EXPAND_NAMES)}"
            )
        if self.fold_collective not in _FOLD_NAMES:
            raise ConfigurationError(
                f"unknown fold collective {self.fold_collective!r}; "
                f"choose from {sorted(_FOLD_NAMES)}"
            )
        if self.use_sieve and self.fold_collective != "union-ring":
            raise ConfigurationError(
                "the communication sieve requires a CSR-capable fold "
                f"collective (union-ring), not {self.fold_collective!r}"
            )
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ConfigurationError(
                f"buffer_capacity must be positive or None, got {self.buffer_capacity}"
            )
