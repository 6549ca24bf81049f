"""BlueGene/L machine parameters and the simulated cost model.

The paper reports times from a real 32,768-node BlueGene/L; we reproduce
the *shape* of those results with an explicit alpha-beta-hop cost model
whose constants come from BlueGene/L's published characteristics
(Section 4.1 of the paper and the BG/L system papers):

* torus link bandwidth 1.4 Gbit/s = 175 MB/s per direction,
* per-hop latency well under a microsecond (cut-through routing),
* MPI-level point-to-point latency a few microseconds,
* 700 MHz PowerPC 440 cores, and a BFS that is memory-bound: the paper's
  profiling found the global-to-local *hash lookup* on received vertices
  dominating, so the compute model charges per hash lookup, per scanned
  edge, and per vertex update.

Absolute seconds from this model are *not* expected to match the paper's
testbed; crossovers and scaling exponents are (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.torus import Torus3D
from repro.utils.validation import check_positive


@dataclass(frozen=True, slots=True)
class MachineModel:
    """Cost parameters of a distributed-memory machine.

    Times returned by the methods are seconds of *simulated* time.
    """

    name: str
    #: per-message software latency (MPI alpha), seconds
    alpha: float
    #: per-hop wire/router latency, seconds
    per_hop: float
    #: link bandwidth, bytes per second per direction
    bandwidth: float
    #: bytes used to encode one vertex id on the wire
    bytes_per_vertex: int
    #: seconds per adjacency entry scanned during frontier expansion
    edge_scan_cost: float
    #: seconds per global-to-local lookup on a received vertex (the paper's
    #: dominant hashing cost)
    hash_lookup_cost: float
    #: seconds per level-label update
    update_cost: float

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        check_positive("bandwidth", self.bandwidth)
        check_positive("bytes_per_vertex", self.bytes_per_vertex)
        for field in ("per_hop", "edge_scan_cost", "hash_lookup_cost", "update_cost"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")

    # ------------------------------------------------------------------ #
    # communication costs
    # ------------------------------------------------------------------ #
    def message_time(self, num_vertices: int, hops: int = 1, contention: float = 1.0) -> float:
        """Time to move one message of ``num_vertices`` ids over ``hops`` links.

        ``contention`` >= 1 divides the effective bandwidth (several
        messages sharing a link within a round).
        """
        if num_vertices < 0:
            raise ValueError("message length must be non-negative")
        return self.message_time_bytes(
            num_vertices * self.bytes_per_vertex, hops=hops, contention=contention
        )

    def message_time_bytes(
        self, nbytes: int, hops: int = 1, contention: float = 1.0
    ) -> float:
        """Time to move ``nbytes`` wire bytes over ``hops`` links.

        The byte-level entry point used when a :mod:`repro.wire` codec has
        already determined the encoded message size; :meth:`message_time`
        is the uncompressed (``bytes_per_vertex``) special case.
        """
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        return self.alpha + hops * self.per_hop + contention * nbytes / self.bandwidth

    def with_overrides(self, **kwargs) -> "MachineModel":
        """Copy with some parameters replaced (for sensitivity ablations)."""
        return replace(self, **kwargs)


#: BlueGene/L-calibrated parameters (see module docstring for sources).
BLUEGENE_L = MachineModel(
    name="BlueGene/L",
    alpha=3.0e-6,
    per_hop=1.0e-7,
    bandwidth=175e6,
    bytes_per_vertex=8,
    edge_scan_cost=2.0e-8,
    hash_lookup_cost=3.0e-7,
    update_cost=5.0e-8,
)


def bluegene_l_torus_for(nranks: int) -> Torus3D:
    """A plausible BG/L-style torus shape hosting ``nranks`` nodes.

    Picks the most cube-like factorisation ``X >= Y >= Z`` of ``nranks``
    (BG/L partitions were near-cubic blocks of the 64x32x32 machine).
    """
    check_positive("nranks", nranks)
    best: tuple[int, int, int] | None = None
    for z in range(1, int(round(nranks ** (1 / 3))) + 1):
        if nranks % z:
            continue
        rest = nranks // z
        for y in range(z, int(rest**0.5) + 1):
            if rest % y:
                continue
            x = rest // y
            if x < y:
                continue
            candidate = (x, y, z)
            if best is None or _aspect(candidate) < _aspect(best):
                best = candidate
    if best is None:
        best = (nranks, 1, 1)
    return Torus3D(*best)


def _aspect(dims: tuple[int, int, int]) -> float:
    """Aspect ratio metric: 1.0 for a perfect cube, larger when skewed."""
    x, y, z = dims
    return max(x, y, z) / min(x, y, z)
