"""repro — reproduction of Yoo et al., "A Scalable Distributed Parallel
Breadth-First Search Algorithm on BlueGene/L" (SC 2005).

The package implements the paper's 1D- and 2D-partitioned level-synchronous
BFS, the bi-directional variant, the BlueGene/L-optimised two-phase ring
collectives with set-union fold, and the analytic message-length model —
all on a deterministic virtual-rank runtime with a torus network cost model
(the hardware substitution is documented in DESIGN.md).

Quickstart::

    from repro import GraphSpec, poisson_random_graph, distributed_bfs

    graph = poisson_random_graph(GraphSpec(n=10_000, k=10, seed=1))
    result = distributed_bfs(graph, grid=(4, 4), source=0)
    print(result.summary())
"""

from repro.types import (
    SYSTEM_PRESETS,
    GraphSpec,
    GridShape,
    SystemSpec,
    UNREACHED,
    resolve_system,
)
from repro.faults import FAULT_PRESETS, FaultReport, FaultSchedule, FaultSpec
from repro.wire import (
    WIRE_CODECS,
    AdaptiveCodec,
    BitmapCodec,
    DeltaVarintCodec,
    RawCodec,
    WireCodec,
    get_codec,
    resolve_wire,
)
from repro.observability import (
    OBSERVE_PRESETS,
    MetricsRegistry,
    ObservabilityData,
    ObserveSpec,
    export_artifacts,
    result_digests,
)
from repro.graph import CsrGraph, build_graph, poisson_random_graph
from repro.partition import OneDPartition, TwoDPartition
from repro.machine import BLUEGENE_L, MCR_CLUSTER, MachineModel, Torus3D
from repro.runtime import Communicator
from repro.bfs import (
    BfsOptions,
    BfsResult,
    BidirectionalResult,
    LevelSyncEngine,
    run_bfs,
    run_bidirectional_bfs,
    serial_bfs,
)
from repro.api import (
    bidirectional_bfs,
    build_communicator,
    build_engine,
    distributed_bfs,
)
from repro.session import BfsSession, extract_path

__version__ = "1.0.0"

__all__ = [
    "GraphSpec",
    "GridShape",
    "UNREACHED",
    "SystemSpec",
    "SYSTEM_PRESETS",
    "resolve_system",
    "FaultSpec",
    "FaultSchedule",
    "FaultReport",
    "FAULT_PRESETS",
    "WireCodec",
    "WIRE_CODECS",
    "RawCodec",
    "DeltaVarintCodec",
    "BitmapCodec",
    "AdaptiveCodec",
    "get_codec",
    "resolve_wire",
    "ObserveSpec",
    "OBSERVE_PRESETS",
    "ObservabilityData",
    "MetricsRegistry",
    "export_artifacts",
    "result_digests",
    "CsrGraph",
    "build_graph",
    "poisson_random_graph",
    "OneDPartition",
    "TwoDPartition",
    "BLUEGENE_L",
    "MCR_CLUSTER",
    "MachineModel",
    "Torus3D",
    "Communicator",
    "BfsOptions",
    "BfsResult",
    "BidirectionalResult",
    "LevelSyncEngine",
    "run_bfs",
    "run_bidirectional_bfs",
    "serial_bfs",
    "bidirectional_bfs",
    "build_communicator",
    "build_engine",
    "distributed_bfs",
    "BfsSession",
    "extract_path",
    "__version__",
]
