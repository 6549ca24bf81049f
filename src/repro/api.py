"""High-level convenience API.

These helpers wire together the full stack — graph, partition, machine
model, task mapping, fault schedule, communicator, engine — so that a user
can run the paper's algorithm in three lines (see ``examples/quickstart.py``).
Every piece remains individually constructible for finer control.

The system a search runs on is described by one
:class:`~repro.types.SystemSpec` value (or a preset name like
``"bluegene-2d"``), passed as ``system=``; every entry point resolves it
through :func:`repro.types.resolve_system`, with ``wire=`` / ``faults=`` /
``observe=`` as first-class overrides of the spec's fields.
"""

from __future__ import annotations

from repro.bfs.bidirectional import run_bidirectional_bfs
from repro.bfs.level_sync import LevelSyncEngine, run_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.result import BfsResult, BidirectionalResult
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule, FaultSpec
from repro.graph.csr import CsrGraph
from repro.machine.bluegene import BLUEGENE_L, MachineModel, bluegene_l_torus_for
from repro.machine.cluster import MCR_CLUSTER, flat_network_for
from repro.machine.mapping import TaskMapping, planar_mapping, row_major_mapping
from repro.partition.two_d import TwoDPartition
from repro.runtime.comm import Communicator
from repro.types import GridShape, SystemSpec, resolve_system


def resolve_machine_model(spec: SystemSpec) -> MachineModel:
    """The :class:`MachineModel` a resolved spec simulates."""
    if isinstance(spec.machine, MachineModel):
        return spec.machine
    if spec.machine == "bluegene":
        return BLUEGENE_L
    if spec.machine == "mcr":
        return MCR_CLUSTER
    raise ConfigurationError(  # pragma: no cover - resolve_system validates presets
        f"unknown machine {spec.machine!r}; use 'bluegene' or 'mcr'"
    )


def engine_mesh(grid: GridShape, spec: SystemSpec) -> GridShape:
    """The ``R x C`` mesh the engine runs on for a requested ``grid``.

    1D partitioning is 2D partitioning with one processor-row (§2.2): the
    ``"1d"`` layout runs on ``1 x P`` whichever 1-D grid was asked for —
    ``P x 1`` under Algorithm 2 would be the transpose, an expand with no
    fold.  ``"2d"`` runs on ``grid`` itself.
    """
    if spec.layout == "2d":
        return grid
    if not grid.is_1d:
        raise ConfigurationError(f"the 1d layout needs a 1-D grid, got {grid}")
    return GridShape(1, grid.size)


def resolve_task_mapping(
    grid: GridShape, spec: SystemSpec, model: MachineModel
) -> TaskMapping:
    """The :class:`TaskMapping` (engine mesh → physical topology) for ``grid``.

    Ranks are placed on the requested ``grid`` and the placement is then
    re-gridded onto :func:`engine_mesh`, so a ``"1d"`` run keeps the
    placement of whichever 1-D grid it asked for — a prebuilt
    ``TaskMapping`` of ``P x 1`` included.  Builds the
    torus (or flat network) exactly once per call — callers that serve many
    queries over one system should cache the result
    (:class:`repro.session.BfsSession` does).
    """
    mesh = engine_mesh(grid, spec)
    if isinstance(spec.mapping, TaskMapping):
        placed = spec.mapping
    elif model.name == "MCR":
        placed = flat_network_for(grid)
    elif spec.mapping == "planar":
        placed = planar_mapping(grid, bluegene_l_torus_for(grid.size))
    elif spec.mapping == "row-major":
        placed = row_major_mapping(grid, bluegene_l_torus_for(grid.size))
    else:
        raise ConfigurationError(  # pragma: no cover - resolve_system validates presets
            f"unknown mapping {spec.mapping!r}; use 'planar', 'row-major', or a TaskMapping"
        )
    if placed.grid == grid != mesh:
        placed = TaskMapping(mesh, placed.torus, placed.rank_to_node)
    return placed


def build_communicator(
    grid: GridShape | tuple[int, int],
    *,
    system: SystemSpec | str | None = None,
    buffer_capacity: int | None = None,
    wire: str | None = None,
    faults: FaultSpec | str | None = None,
    observe: str | None = None,
) -> Communicator:
    """Create a virtual communicator for ``grid`` on the requested system.

    ``system`` is a :class:`SystemSpec` or a preset name; the ``wire`` /
    ``faults`` / ``observe`` overrides replace its fields.  Its ``machine``
    is ``"bluegene"``, ``"mcr"``, or a custom :class:`MachineModel`; its
    ``mapping`` ``"planar"`` (the paper's Figure 1 scheme), ``"row-major"``
    (naive baseline), or a prebuilt :class:`TaskMapping`; ``wire`` a
    :mod:`repro.wire` codec name (``"raw"``, ``"delta-varint"``,
    ``"bitmap"``, ``"adaptive"``) or instance; ``observe`` an observability
    preset (``"off"``, ``"spans"``, ``"messages"``, ``"full"``).  The MCR
    machine always uses its flat network.
    """
    if not isinstance(grid, GridShape):
        grid = GridShape(*grid)
    spec = resolve_system(system, wire=wire, faults=faults, observe=observe)
    model = resolve_machine_model(spec)
    task_mapping = resolve_task_mapping(grid, spec, model)
    schedule = FaultSchedule(spec.faults, grid.size) if spec.faults is not None else None
    return Communicator(
        task_mapping, model, buffer_capacity=buffer_capacity, faults=schedule,
        wire=spec.wire, observe=spec.observe,
    )


def build_engine(
    graph: CsrGraph,
    grid: GridShape | tuple[int, int],
    *,
    opts: BfsOptions | None = None,
    system: SystemSpec | str | None = None,
    wire: str | None = None,
    faults: FaultSpec | str | None = None,
    observe: str | None = None,
    comm: Communicator | None = None,
) -> LevelSyncEngine:
    """Partition ``graph`` over ``grid`` and build a ready-to-run engine.

    Every layout runs Algorithm 2 on a :class:`TwoDPartition` of the
    :func:`engine_mesh`: ``grid`` itself for ``"2d"`` (the default), and
    ``1 x P`` for ``"1d"`` (the grid must then be ``P x 1`` or ``1 x P``).
    A prebuilt ``comm`` wins over the spec's machine/mapping/wire/faults;
    its grid must be the engine mesh and its buffer capacity
    ``opts.buffer_capacity``.
    """
    if not isinstance(grid, GridShape):
        grid = GridShape(*grid)
    spec = resolve_system(system, wire=wire, faults=faults, observe=observe)
    opts = opts or BfsOptions()
    mesh = engine_mesh(grid, spec)
    if comm is None:
        comm = build_communicator(grid, system=spec, buffer_capacity=opts.buffer_capacity)
    return LevelSyncEngine(TwoDPartition(graph, mesh), comm, opts)


def distributed_bfs(
    graph: CsrGraph,
    grid: GridShape | tuple[int, int],
    source: int,
    *,
    target: int | None = None,
    opts: BfsOptions | None = None,
    system: SystemSpec | str | None = None,
    wire: str | None = None,
    faults: FaultSpec | str | None = None,
    observe: str | None = None,
    max_levels: int | None = None,
) -> BfsResult:
    """One-call distributed BFS: partition, simulate, return the result."""
    spec = resolve_system(system, wire=wire, faults=faults, observe=observe)
    engine = build_engine(graph, grid, opts=opts, system=spec)
    return run_bfs(engine, source, target=target, max_levels=max_levels)


def bidirectional_bfs(
    graph: CsrGraph,
    grid: GridShape | tuple[int, int],
    source: int,
    target: int,
    *,
    opts: BfsOptions | None = None,
    system: SystemSpec | str | None = None,
    wire: str | None = None,
    faults: FaultSpec | str | None = None,
    observe: str | None = None,
) -> BidirectionalResult:
    """One-call bi-directional s-t search (Section 2.3)."""
    if not isinstance(grid, GridShape):
        grid = GridShape(*grid)
    spec = resolve_system(system, wire=wire, faults=faults, observe=observe)
    opts = opts or BfsOptions()
    comm = build_communicator(grid, system=spec, buffer_capacity=opts.buffer_capacity)
    forward = build_engine(graph, grid, opts=opts, system=spec, comm=comm)
    backward = build_engine(graph, grid, opts=opts, system=spec, comm=comm)
    return run_bidirectional_bfs(forward, backward, source, target)
