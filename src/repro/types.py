"""Shared scalar types, array aliases, and small value objects.

The whole library stores vertex identifiers as 64-bit integers
(``VERTEX_DTYPE``) so that graphs with billions of vertices — the regime the
paper targets — are representable without overflow, and so that message
payloads are plain NumPy buffers (the mpi4py "fast path" idiom: communicate
buffer-like objects, not pickled Python objects).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, TypeAlias

import numpy as np

from repro.errors import ConfigurationError
from repro.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine.bluegene import MachineModel
    from repro.machine.mapping import TaskMapping

#: dtype used for vertex identifiers everywhere (global and local indices).
VERTEX_DTYPE = np.int64

#: dtype used for level labels; -1 encodes "unvisited" (the paper's infinity).
LEVEL_DTYPE = np.int64

#: Sentinel level meaning "not yet reached" (the paper's ``L = infinity``).
UNREACHED: int = -1

#: Alias for a 1-D array of vertex ids.
VertexArray: TypeAlias = np.ndarray

#: Alias for a 1-D array of level labels.
LevelArray: TypeAlias = np.ndarray

#: Rank of a (virtual) processor in the runtime.
Rank: TypeAlias = int


def as_vertex_array(values) -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D ``VERTEX_DTYPE`` array.

    Accepts lists, ranges, scalars and arrays; always returns a fresh or
    already-conforming array (never a view with the wrong dtype).
    """
    arr = np.asarray(values, dtype=VERTEX_DTYPE)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"vertex arrays must be 1-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True, slots=True)
class GridShape:
    """Shape ``R x C`` of the logical 2-D processor mesh.

    The paper arranges ``P = R * C`` processors in an ``R x C`` mesh; the
    conventional 1-D partitioning is the degenerate case ``R == 1`` or
    ``C == 1`` (Section 2.2).
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid shape must be positive, got {self.rows}x{self.cols}")

    @property
    def size(self) -> int:
        """Total number of processors ``P = R * C``."""
        return self.rows * self.cols

    @property
    def is_1d(self) -> bool:
        """True when the mesh degenerates to a conventional 1-D partitioning."""
        return self.rows == 1 or self.cols == 1

    def rank_of(self, row: int, col: int) -> int:
        """Linear rank of mesh position ``(row, col)`` (row-major)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"({row},{col}) outside {self.rows}x{self.cols} mesh")
        return row * self.cols + col

    def coords_of(self, rank: int) -> tuple[int, int]:
        """Mesh position ``(row, col)`` of linear ``rank``."""
        if not (0 <= rank < self.size):
            raise IndexError(f"rank {rank} outside mesh of size {self.size}")
        return divmod(rank, self.cols)

    def row_members(self, row: int) -> list[int]:
        """Ranks in processor-row ``row`` (the fold communicator, Section 2.2)."""
        return [self.rank_of(row, c) for c in range(self.cols)]

    def col_members(self, col: int) -> list[int]:
        """Ranks in processor-column ``col`` (the expand communicator)."""
        return [self.rank_of(r, col) for r in range(self.rows)]


_KNOWN_MACHINES = frozenset({"bluegene", "mcr"})
_KNOWN_MAPPINGS = frozenset({"planar", "row-major"})
_KNOWN_LAYOUTS = frozenset({"1d", "2d"})
#: wire-codec preset names (see ``repro.wire``); kept as a literal set so
#: this module stays import-cycle-free (``repro.wire`` imports it).
_KNOWN_WIRES = frozenset({"raw", "delta-varint", "bitmap", "adaptive"})
#: observability preset names (see ``repro.observability``); literal for the
#: same import-cycle reason as ``_KNOWN_WIRES``.
_KNOWN_OBSERVE = frozenset({"off", "spans", "messages", "full"})


@dataclass(frozen=True, slots=True)
class SystemSpec:
    """The simulated system a search runs on, as one value object.

    Bundles the axes that used to travel as separate
    ``machine=``/``mapping=``/``layout=`` (and fault) keyword arguments
    through every entry point: the machine cost model, the task mapping
    onto the physical topology, the partition layout, the wire codec
    compressing frontier messages (``repro.wire``), and the optional
    fault-injection workload.  Pass it as ``system=SystemSpec(...)`` — or
    as a preset name such as ``"bluegene-2d"`` — to
    :func:`repro.api.build_communicator`, :func:`repro.api.build_engine`,
    :func:`repro.api.distributed_bfs`, :func:`repro.api.bidirectional_bfs`,
    and :class:`repro.session.BfsSession`.  Those entry points take
    ``wire=``/``faults=``/``observe=`` as overrides on top of the spec
    (see :func:`resolve_system`, the single shared resolver); the old
    ``machine=``/``mapping=``/``layout=`` keyword arguments are gone, and
    only the CLI keeps them, as flags.
    """

    #: ``"bluegene"``, ``"mcr"``, or a custom :class:`MachineModel`
    machine: str | MachineModel = "bluegene"
    #: ``"planar"`` (Figure 1), ``"row-major"``, or a prebuilt :class:`TaskMapping`
    mapping: str | TaskMapping = "planar"
    #: ``"2d"`` (Algorithm 2) or ``"1d"`` (Algorithm 1: Algorithm 2 on a
    #: ``1 x P`` mesh, see :func:`repro.api.engine_mesh`)
    layout: str = "2d"
    #: frontier compression codec on the wire (``repro.wire``): ``"raw"``,
    #: ``"delta-varint"``, ``"bitmap"``, ``"adaptive"``, or a ``WireCodec``
    wire: str | Any = "raw"
    #: optional fault-injection workload (``repro.faults``): a
    #: :class:`FaultSpec`, a preset name (``"none"``, ``"mild"``,
    #: ``"harsh"``), or a ``key=value,...`` string for
    #: :meth:`FaultSpec.parse`
    faults: FaultSpec | str | None = None
    #: observability capture (``repro.observability``): ``"off"`` (default),
    #: ``"spans"``, ``"messages"``, ``"full"``, or an ``ObserveSpec``
    observe: str | Any = "off"

    def __post_init__(self) -> None:
        if isinstance(self.machine, str) and self.machine not in _KNOWN_MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; use one of "
                f"{sorted(_KNOWN_MACHINES)} or a MachineModel"
            )
        if isinstance(self.mapping, str) and self.mapping not in _KNOWN_MAPPINGS:
            raise ConfigurationError(
                f"unknown mapping {self.mapping!r}; use one of "
                f"{sorted(_KNOWN_MAPPINGS)} or a TaskMapping"
            )
        if self.layout not in _KNOWN_LAYOUTS:
            raise ConfigurationError(
                f"unknown layout {self.layout!r}; use one of {sorted(_KNOWN_LAYOUTS)}"
            )
        if isinstance(self.wire, str):
            if self.wire not in _KNOWN_WIRES:
                raise ConfigurationError(
                    f"unknown wire codec {self.wire!r}; use one of "
                    f"{sorted(_KNOWN_WIRES)} or a WireCodec"
                )
        elif not (callable(getattr(self.wire, "encode", None))
                  and callable(getattr(self.wire, "decode", None))):
            raise ConfigurationError(
                f"wire must be a codec name or a WireCodec, "
                f"got {type(self.wire).__name__}"
            )
        if isinstance(self.observe, str):
            if self.observe not in _KNOWN_OBSERVE:
                raise ConfigurationError(
                    f"unknown observe preset {self.observe!r}; use one of "
                    f"{sorted(_KNOWN_OBSERVE)} or an ObserveSpec"
                )
        elif not (
            isinstance(getattr(self.observe, "spans", None), bool)
            and isinstance(getattr(self.observe, "messages", None), bool)
        ):
            raise ConfigurationError(
                f"observe must be a preset name or an ObserveSpec, "
                f"got {type(self.observe).__name__}"
            )
        if isinstance(self.faults, str):
            # preset name ("none", "mild", "harsh") or a key=value,...
            # string; frozen dataclass, so assign via object.__setattr__
            object.__setattr__(self, "faults", FaultSpec.parse(self.faults))
        elif self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ConfigurationError(
                f"faults must be a FaultSpec, a preset name, or None, "
                f"got {type(self.faults).__name__}"
            )


#: Named system configurations accepted wherever ``system=`` is.
SYSTEM_PRESETS: dict[str, SystemSpec] = {
    "bluegene-2d": SystemSpec(),
    "bluegene-1d": SystemSpec(layout="1d"),
    "bluegene-row-major": SystemSpec(mapping="row-major"),
    "mcr-2d": SystemSpec(machine="mcr"),
    "mcr-1d": SystemSpec(machine="mcr", layout="1d"),
    "bluegene-2d-varint": SystemSpec(wire="delta-varint"),
    "bluegene-2d-bitmap": SystemSpec(wire="bitmap"),
    "bluegene-2d-adaptive": SystemSpec(wire="adaptive"),
    "bluegene-2d-observed": SystemSpec(observe="full"),
}


def resolve_system(
    system: SystemSpec | str | None = None,
    *,
    machine: str | Any | None = None,
    mapping: str | Any | None = None,
    layout: str | None = None,
    wire: str | Any | None = None,
    faults: FaultSpec | str | None = None,
    observe: str | Any | None = None,
) -> SystemSpec:
    """The single shared resolver behind every ``system=`` entry point.

    ``system`` may be a :class:`SystemSpec`, a preset name from
    :data:`SYSTEM_PRESETS`, or ``None`` (the default system).  The legacy
    keyword arguments — the compatibility path for the pre-``SystemSpec``
    API — are applied on top of it, so an explicit ``machine=``/
    ``mapping=``/``layout=``/``faults=`` always wins over the spec.
    """
    if system is None:
        base = SystemSpec()
    elif isinstance(system, str):
        try:
            base = SYSTEM_PRESETS[system]
        except KeyError:
            raise ConfigurationError(
                f"unknown system preset {system!r}; choose from "
                f"{sorted(SYSTEM_PRESETS)} or pass a SystemSpec"
            ) from None
    elif isinstance(system, SystemSpec):
        base = system
    else:
        raise ConfigurationError(
            f"system must be a SystemSpec, a preset name, or None, "
            f"got {type(system).__name__}"
        )
    overrides = {
        key: value
        for key, value in (
            ("machine", machine), ("mapping", mapping),
            ("layout", layout), ("wire", wire), ("faults", faults),
            ("observe", observe),
        )
        if value is not None
    }
    return replace(base, **overrides) if overrides else base


#: graph-kind names accepted by :class:`GraphSpec` (``kind=``).
_KNOWN_GRAPH_KINDS = frozenset({"poisson", "rmat"})


@dataclass(frozen=True, slots=True)
class GraphSpec:
    """Specification of a random graph experiment instance.

    ``n`` is the global vertex count and ``k`` the average degree (the
    paper's notation throughout).  ``seed`` pins the instance.

    ``kind`` selects the generator family: ``"poisson"`` (the paper's
    Erdős–Rényi workload; the default) or ``"rmat"`` (Graph500-style
    scale-free Kronecker graphs, the successor literature's workload).
    R-MAT specs carry ``scale``/``edge_factor`` and the partition
    probabilities ``a``/``b``/``c`` (``d = 1 - a - b - c``); ``n`` must
    equal ``2**scale`` and ``k`` is the *nominal* average degree
    ``2 * edge_factor`` (duplicates and self-loops make the realised
    degree somewhat lower).  Use :meth:`GraphSpec.rmat` to build one
    without repeating the derived fields.
    """

    n: int
    k: float
    seed: int = 0
    #: generator family: ``"poisson"`` (default) or ``"rmat"``
    kind: str = "poisson"
    #: R-MAT only: ``n == 2**scale``
    scale: int | None = None
    #: R-MAT only: directed edges sampled per vertex (Graph500's 16)
    edge_factor: int = 16
    #: R-MAT quadrant probabilities (Graph500 defaults); d = 1 - a - b - c
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph must have at least one vertex, got n={self.n}")
        if self.k < 0:
            raise ValueError(f"average degree must be non-negative, got k={self.k}")
        if self.k > self.n - 1 and self.n > 1:
            raise ValueError(f"average degree k={self.k} exceeds n-1={self.n - 1}")
        if self.kind not in _KNOWN_GRAPH_KINDS:
            raise ValueError(
                f"unknown graph kind {self.kind!r}; "
                f"use one of {sorted(_KNOWN_GRAPH_KINDS)}"
            )
        if self.kind == "rmat":
            if self.scale is None:
                raise ValueError("kind='rmat' requires scale (n = 2**scale)")
            if self.scale < 1:
                raise ValueError(f"rmat scale must be >= 1, got {self.scale}")
            if self.n != (1 << self.scale):
                raise ValueError(
                    f"rmat requires n == 2**scale "
                    f"({1 << self.scale}), got n={self.n}"
                )
            if self.edge_factor < 1:
                raise ValueError(
                    f"rmat edge_factor must be >= 1, got {self.edge_factor}"
                )
            d = 1.0 - self.a - self.b - self.c
            if min(self.a, self.b, self.c, d) < 0:
                raise ValueError(
                    "R-MAT probabilities a, b, c (and d = 1-a-b-c) "
                    "must be non-negative"
                )
        elif self.scale is not None:
            raise ValueError("scale is only meaningful with kind='rmat'")

    @classmethod
    def rmat(
        cls,
        scale: int,
        *,
        edge_factor: int = 16,
        seed: int = 0,
        a: float = 0.57,
        b: float = 0.19,
        c: float = 0.19,
    ) -> "GraphSpec":
        """An R-MAT spec with the derived fields filled in.

        ``n = 2**scale`` and the nominal average degree is
        ``k = 2 * edge_factor`` (each of the ``n * edge_factor`` directed
        samples contributes two endpoint slots before dedup).
        """
        return cls(
            n=1 << scale,
            k=float(2 * edge_factor),
            seed=seed,
            kind="rmat",
            scale=scale,
            edge_factor=edge_factor,
            a=a,
            b=b,
            c=c,
        )

    @property
    def expected_edges(self) -> float:
        """Expected (poisson) or nominal pre-dedup (rmat) undirected edge count."""
        if self.kind == "rmat":
            return float(self.n * self.edge_factor)
        return self.n * self.k / 2.0
