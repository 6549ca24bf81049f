"""Per-level direction policy for direction-optimizing BFS.

Beamer's direction-optimizing traversal (arXiv:1705.04590, following the
SC'12 paper) runs each level either *top-down* (frontier vertices push to
neighbours) or *bottom-up* (unvisited vertices scan their edge lists for a
frontier parent, stopping at the first hit).  Top-down work is proportional
to edges out of the frontier; bottom-up work is proportional to edges out
of the *unvisited* set, with early exit.  On scale-free graphs the middle
levels hold most of the graph, so a few bottom-up levels cut traversed
edges by an order of magnitude.

:class:`DirectionPolicy` decides the direction of each level from three
*global counts only* — frontier size, unvisited count, and ``n``.  This is
deliberate: the simulator's engine and the SPMD backend can all compute
these identically (the engine from its global arrays, the workers from
allreduced totals), so every rank takes the same branch in lockstep and
the hybrid traversal stays deterministic across backends.

Two adaptive modes are provided:

``hybrid``
    The classic online α/β heuristic with hysteresis: switch top-down →
    bottom-up when the frontier exceeds ``unvisited / alpha``, and back
    once the frontier shrinks below ``n / beta``.

``model``
    Offline cost-model mode: the per-level schedule is precomputed from
    :mod:`repro.analysis.frontier_model`'s epidemic recursion (valid for
    Poisson specs only — see :func:`DirectionPolicy.model_for`), so the
    switch levels are known before the search starts.  Falls back to the
    online heuristic for levels beyond the predicted horizon.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

TOP_DOWN = "top-down"
BOTTOM_UP = "bottom-up"

#: policy mode names accepted by :class:`DirectionPolicy` / ``BfsOptions``
DIRECTION_MODES = ("top-down", "bottom-up", "hybrid", "model")

__all__ = [
    "BOTTOM_UP",
    "DIRECTION_MODES",
    "TOP_DOWN",
    "DirectionPolicy",
]


@dataclass(frozen=True, slots=True)
class DirectionPolicy:
    """Chooses each BFS level's traversal direction.

    ``mode`` is one of :data:`DIRECTION_MODES`.  ``alpha`` and ``beta``
    are the Beamer switch thresholds (larger ``alpha`` switches to
    bottom-up later; larger ``beta`` switches back later).  ``schedule``
    is a precomputed per-level direction tuple used by ``model`` mode;
    levels beyond its end fall back to the online heuristic.
    """

    mode: str = "top-down"
    alpha: float = 6.0
    beta: float = 24.0
    schedule: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in DIRECTION_MODES:
            raise ValueError(
                f"unknown direction mode {self.mode!r}; "
                f"use one of {list(DIRECTION_MODES)}"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"alpha/beta must be positive, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )
        for entry in self.schedule:
            if entry not in (TOP_DOWN, BOTTOM_UP):
                raise ValueError(
                    f"schedule entries must be {TOP_DOWN!r} or "
                    f"{BOTTOM_UP!r}, got {entry!r}"
                )

    @classmethod
    def coerce(cls, value: "DirectionPolicy | str") -> "DirectionPolicy":
        """Accept a policy object or a bare mode name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"direction must be a DirectionPolicy or a mode name, "
            f"got {type(value).__name__}"
        )

    @property
    def may_go_bottom_up(self) -> bool:
        """True when any level could run bottom-up under this policy."""
        return self.mode != TOP_DOWN

    def decide(
        self, level: int, frontier_size: int, unvisited: int, n: int,
        prev: str = TOP_DOWN,
    ) -> str:
        """Direction for ``level``, from global counts and the previous direction.

        ``frontier_size`` is the number of vertices at ``level``;
        ``unvisited`` counts vertices still unreached *before* this level
        expands.  Deterministic in its arguments — all backends feed it
        the same allreduced totals and take the same branch.
        """
        if self.mode == TOP_DOWN:
            return TOP_DOWN
        if self.mode == BOTTOM_UP:
            return BOTTOM_UP
        if self.mode == "model" and level < len(self.schedule):
            return self.schedule[level]
        # Online α/β heuristic with hysteresis (hybrid mode, and model
        # mode past the precomputed horizon).
        if frontier_size == 0 or unvisited == 0:
            return TOP_DOWN
        if prev == TOP_DOWN:
            return BOTTOM_UP if frontier_size > unvisited / self.alpha else TOP_DOWN
        return TOP_DOWN if frontier_size < n / self.beta else BOTTOM_UP

    @classmethod
    def model_for(
        cls,
        spec,
        *,
        alpha: float = 6.0,
        beta: float = 24.0,
        max_levels: int = 64,
    ) -> "DirectionPolicy":
        """A ``model``-mode policy whose schedule is predicted offline.

        Runs the α/β decision over the analytic frontier-fraction
        trajectory from :func:`repro.analysis.frontier_model.
        frontier_fractions_for` — so the switch levels are fixed before
        the search starts.  The frontier model is only valid for Poisson
        specs; for any other kind this warns and returns a plain
        ``hybrid`` (online) policy instead of mispredicting.
        """
        from repro.analysis.frontier_model import frontier_fractions_for
        from repro.errors import ConfigurationError

        try:
            fractions = frontier_fractions_for(spec, max_levels=max_levels)
        except ConfigurationError as exc:
            warnings.warn(
                f"DirectionPolicy.model_for: {exc}; falling back to the "
                f"online hybrid heuristic",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls(mode="hybrid", alpha=alpha, beta=beta)
        n = spec.n
        online = cls(mode="hybrid", alpha=alpha, beta=beta)
        schedule: list[str] = []
        prev = TOP_DOWN
        reached = 0.0
        for level, fraction in enumerate(fractions):
            frontier = max(1, round(fraction * n))
            unvisited = max(0, n - round(reached * n) - frontier)
            prev = online.decide(level, frontier, unvisited, n, prev)
            schedule.append(prev)
            reached += fraction
        return cls(
            mode="model", alpha=alpha, beta=beta, schedule=tuple(schedule)
        )
