"""Command-line interface.

Subcommands::

    repro-bfs generate   --out graph.npz --n 20000 --k 10 [--rmat --scale 14]
    repro-bfs bfs        --graph graph.npz --grid 4x4 --source 0 [--target T]
    repro-bfs bidir      --graph graph.npz --grid 4x4 --source S --target T
    repro-bfs serve      --graph graph.npz --grid 4x4 --port 7475
    repro-bfs digest     --n 20000 --k 8 --seed 7 --grid 4x4
    repro-bfs crossover  --n 4e7 --p 400
    repro-bfs figure     --name fig4a|...|distgen [--tier quick|full] [--out DIR]
    repro-bfs scorecard
    repro-bfs reproduce  --out results/

`bfs` and `bidir` accept either a stored graph (``--graph``) or generation
parameters (``--n/--k/--seed``) to build one on the fly; ``bfs
--validate`` runs the Graph500-style structural checks on the result.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.analysis.crossover import crossover_degree
from repro.api import bidirectional_bfs, distributed_bfs
from repro.bfs.direction import DIRECTION_MODES, DirectionPolicy
from repro.bfs.options import BfsOptions
from repro.bfs.tree import build_parent_tree, validate_bfs_result
from repro.graph.csr import CsrGraph
from repro.graph.generators import build_graph, poisson_random_graph, rmat_edges
from repro.faults import FaultSpec
from repro.graph.io import read_edge_list, write_edge_list
from repro.harness import views
from repro.harness.figures import FIGURES
from repro.harness.report import format_series
from repro.observability import OBSERVE_PRESETS, export_artifacts, result_digests
from repro.types import SYSTEM_PRESETS, GraphSpec, GridShape, SystemSpec, resolve_system
from repro.utils.logging import configure_logging
from repro.utils.rng import RngFactory


def _parse_grid(text: str) -> GridShape:
    try:
        rows, cols = text.lower().split("x")
        return GridShape(int(rows), int(cols))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"grid must look like '4x4', got {text!r}") from exc


def _add_graph_source_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="path to a stored graph (.npz or text)")
    parser.add_argument(
        "--graph-kind", choices=["poisson", "rmat"], default="poisson",
        help="generated-graph family: Poisson (paper baseline) or scale-free R-MAT",
    )
    parser.add_argument("--n", type=int, default=10_000, help="vertices (generated graph)")
    parser.add_argument("--k", type=float, default=10.0, help="average degree")
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    parser.add_argument("--scale", type=int, default=14,
                        help="R-MAT: log2(vertices) (with --graph-kind rmat)")
    parser.add_argument("--edge-factor", type=int, default=16,
                        help="R-MAT: edges per vertex (with --graph-kind rmat)")


def _graph_spec_from(args) -> GraphSpec:
    if args.graph_kind == "rmat":
        return GraphSpec.rmat(args.scale, edge_factor=args.edge_factor, seed=args.seed)
    return GraphSpec(n=args.n, k=args.k, seed=args.seed)


def _load_graph(args) -> CsrGraph:
    if args.graph:
        return read_edge_list(args.graph)
    return build_graph(_graph_spec_from(args))


def _add_bfs_option_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=_parse_grid, default=GridShape(4, 4))
    parser.add_argument(
        "--system", choices=sorted(SYSTEM_PRESETS), default=None,
        help="system preset (machine+mapping+layout); individual flags override it",
    )
    parser.add_argument("--layout", choices=["1d", "2d"], default=None)
    parser.add_argument(
        "--expand", default="direct",
        choices=["direct", "ring", "two-phase", "recursive-doubling"],
    )
    parser.add_argument(
        "--fold", default="union-ring",
        choices=["direct", "ring", "union-ring", "two-phase", "bruck"],
    )
    parser.add_argument("--machine", choices=["bluegene", "mcr"], default=None)
    parser.add_argument("--mapping", choices=["planar", "row-major"], default=None)
    parser.add_argument(
        "--wire-codec", choices=["raw", "delta-varint", "bitmap", "adaptive"],
        default=None,
        help="frontier compression codec on the wire (default: the system "
             "preset's codec, 'raw' unless the preset says otherwise)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection spec: a preset (mild, harsh, crash-spare, "
             "crash-shrink, crash-harsh) or e.g. 'drop=0.05,crash=0.1,"
             "recovery=spare,degrade=0.25x4,straggler=0.1x3,down=2,seed=7'",
    )
    parser.add_argument(
        "--direction", choices=list(DIRECTION_MODES), default="top-down",
        help="per-level traversal direction: fixed top-down/bottom-up, the "
             "counts-based hybrid switch, or the cost-model schedule",
    )
    parser.add_argument("--alpha", type=float, default=6.0,
                        help="hybrid: go bottom-up when frontier > unvisited/alpha")
    parser.add_argument("--beta", type=float, default=24.0,
                        help="hybrid: return top-down when frontier < n/beta")
    parser.add_argument("--no-sent-cache", action="store_true")
    parser.add_argument(
        "--sieve", action="store_true",
        help="filter fold candidates against sender-side shadows of each "
             "destination's visited set so already-visited vertices never "
             "hit the wire (union-ring fold only; composes with --faults)",
    )
    parser.add_argument("--buffer-capacity", type=int, default=None)
    parser.add_argument(
        "--observe", choices=sorted(OBSERVE_PRESETS), default=None,
        help="observability preset: spans, messages, full, or off (default). "
             "--trace-out implies 'full' unless set explicitly",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event / Perfetto JSON timeline here",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the unified metrics registry here (.json for JSON, else CSV)",
    )


def _options_from(args) -> BfsOptions:
    direction = DirectionPolicy(
        mode=args.direction, alpha=args.alpha, beta=args.beta
    )
    if args.direction == "model":
        if getattr(args, "graph", None):
            raise SystemExit(
                "--direction model needs the analytic GraphSpec and cannot be "
                "used with a stored --graph; use --direction hybrid instead"
            )
        direction = DirectionPolicy.model_for(
            _graph_spec_from(args), alpha=args.alpha, beta=args.beta
        )
    return BfsOptions(
        expand_collective=args.expand,
        fold_collective=args.fold,
        use_sent_cache=not args.no_sent_cache,
        use_sieve=args.sieve,
        buffer_capacity=args.buffer_capacity,
        direction=direction,
    )


def _faults_from(args) -> FaultSpec | None:
    if args.faults is None:
        return None
    spec = FaultSpec.parse(args.faults)
    return spec if spec.active else None


def _observe_from(args) -> str | None:
    if args.observe is not None:
        return args.observe
    # A requested trace needs spans + messages recorded.
    return "full" if args.trace_out else None


def _system_from(args, observe: str | None) -> SystemSpec:
    """Resolve the CLI's system flags into one spec.

    Goes straight to :func:`resolve_system`: the individual flags are the
    CLI's own surface for the spec's fields, not the deprecated Python
    keyword arguments, so no deprecation warning fires.
    """
    return resolve_system(
        args.system,
        machine=args.machine,
        mapping=args.mapping,
        layout=args.layout,
        wire=args.wire_codec,
        faults=_faults_from(args),
        observe=observe,
        sieve=args.sieve or None,
    )


def _export_from(args, result) -> None:
    written = export_artifacts(
        result, trace_out=args.trace_out, metrics_out=args.metrics_out
    )
    for path in written:
        print(f"wrote {path}")


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def cmd_generate(args) -> int:
    if args.rmat:
        # --n/--k parameterise the Poisson generator only; silently ignoring
        # them under --rmat produced graphs the user did not ask for.
        explicit = [
            f"--{name}" for name in ("n", "k") if getattr(args, name) is not None
        ]
        if explicit:
            verb = "applies" if len(explicit) == 1 else "apply"
            raise SystemExit(
                f"{' and '.join(explicit)} {verb} to Poisson generation only "
                "and would be ignored by --rmat; use --scale (log2 vertices) "
                "and --edge-factor instead"
            )
        rng = RngFactory(args.seed).named("cli-rmat")
        edges = rmat_edges(args.scale, args.edge_factor, rng)
        graph = CsrGraph.from_edges(1 << args.scale, edges)
    else:
        n = args.n if args.n is not None else 10_000
        k = args.k if args.k is not None else 10.0
        graph = poisson_random_graph(GraphSpec(n=n, k=k, seed=args.seed))
    write_edge_list(graph, args.out)
    print(
        f"wrote {args.out}: n={graph.n} m={graph.num_edges} "
        f"mean-degree={graph.average_degree:.2f}"
    )
    return 0


def cmd_bfs(args) -> int:
    graph = _load_graph(args)
    result = distributed_bfs(
        graph,
        args.grid,
        args.source,
        target=args.target,
        opts=_options_from(args),
        system=_system_from(args, _observe_from(args)),
    )
    _export_from(args, result)
    print(result.summary())
    print(
        f"simulated: total {result.elapsed:.6f}s, comm {result.comm_time:.6f}s, "
        f"compute {result.compute_time:.6f}s"
    )
    print(f"messages {result.stats.total_messages}, bytes {result.stats.total_bytes}")
    if result.stats.total_encoded_bytes != result.stats.total_bytes:
        print(
            f"encoded bytes {result.stats.total_encoded_bytes} "
            f"(compression x{result.stats.compression_ratio:.2f})"
        )
    if result.faults is not None:
        print(result.faults.summary())
    print(format_series(
        "volume/level", range(len(result.stats.levels)),
        result.stats.volume_per_level().tolist(),
    ))
    if args.validate:
        parents = build_parent_tree(graph, result.levels)
        report = validate_bfs_result(graph, args.source, result.levels, parents)
        print(str(report))
        if not report.ok:
            return 1
    return 0


def cmd_bidir(args) -> int:
    graph = _load_graph(args)
    result = bidirectional_bfs(
        graph, args.grid, args.source, args.target,
        opts=_options_from(args),
        system=_system_from(args, _observe_from(args)),
    )
    _export_from(args, result)
    print(result.summary())
    if result.faults is not None:
        print(result.faults.summary())
    return 0


def cmd_digest(args) -> int:
    graph = _load_graph(args)
    result = distributed_bfs(
        graph,
        args.grid,
        args.source,
        opts=_options_from(args),
        system=_system_from(args, args.observe),
    )
    for name, digest in sorted(result_digests(result).items()):
        print(f"{name} {digest}")
    return 0


def cmd_serve(args) -> int:
    from repro.server import BfsService, serve_tcp
    from repro.session import BfsSession

    graph = _load_graph(args)
    session = BfsSession(
        graph, args.grid,
        opts=_options_from(args),
        system=_system_from(args, _observe_from(args)),
    )
    service = BfsService(
        session, max_batch=args.max_batch, max_queue=args.max_queue,
        default_deadline=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        fault_retries=args.fault_retries,
    )

    async def _serve() -> None:
        server = await serve_tcp(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(
            f"serving BFS queries on {host}:{port} "
            f"(n={graph.n}, grid {args.grid.rows}x{args.grid.cols}, "
            f"layout {session.layout}, max_batch={service.max_batch}); "
            "JSON lines, one query per line — Ctrl-C to stop",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    snap = service.metrics.snapshot()
    print(
        f"served {snap['served']} queries in {snap['batches']} batches "
        f"(mean batch {snap['mean_batch_size']}, rejected {snap['rejected']})"
    )
    return 0


def cmd_crossover(args) -> int:
    k = crossover_degree(args.n, args.p)
    print(
        f"1D/2D crossover for n={args.n:g}, P={args.p:g}: k = {k:.3f} "
        f"(1D wins below, 2D wins above)"
    )
    return 0


def cmd_scorecard(args) -> int:
    verdicts = views.evaluate("quick", seed=args.seed)
    print(views.format_scorecard(verdicts))
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_figure(args) -> int:
    fig = FIGURES[args.name]
    if args.out:
        views.write_figure(fig, args.out, args.tier)
        print(f"wrote {args.out}/{fig.id}.txt, .csv, .vl.json")
    else:
        print(views.render(fig, fig.rows(args.tier), args.tier))
    return 0


def cmd_reproduce(args) -> int:
    for fig in FIGURES.values():
        views.write_figure(fig, args.out, args.tier)
        print(f"wrote {fig.id}")
    print(f"\nall artifacts in {args.out}/")
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bfs",
        description="Distributed-parallel BFS (Yoo et al., SC 2005) on a simulated BlueGene/L",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable per-level debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and store a graph")
    gen.add_argument("--out", required=True)
    # defaults are filled in cmd_generate: None detects explicit use so
    # --rmat can reject Poisson-only parameters instead of ignoring them
    gen.add_argument("--n", type=int, default=None,
                     help="Poisson: vertices (default 10000)")
    gen.add_argument("--k", type=float, default=None,
                     help="Poisson: average degree (default 10)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rmat", action="store_true", help="R-MAT instead of Poisson")
    gen.add_argument("--scale", type=int, default=14, help="R-MAT: log2(vertices)")
    gen.add_argument("--edge-factor", type=int, default=16, help="R-MAT: edges per vertex")
    gen.set_defaults(func=cmd_generate)

    bfs = sub.add_parser("bfs", help="run a distributed BFS")
    _add_graph_source_args(bfs)
    _add_bfs_option_args(bfs)
    bfs.add_argument("--source", type=int, default=0)
    bfs.add_argument("--target", type=int, default=None)
    bfs.add_argument("--validate", action="store_true",
                     help="run Graph500-style structural validation")
    bfs.set_defaults(func=cmd_bfs)

    bid = sub.add_parser("bidir", help="run a bi-directional s-t search")
    _add_graph_source_args(bid)
    _add_bfs_option_args(bid)
    bid.add_argument("--source", type=int, required=True)
    bid.add_argument("--target", type=int, required=True)
    bid.set_defaults(func=cmd_bidir)

    srv = sub.add_parser(
        "serve",
        help="run the BFS session server (JSON-lines over TCP; see docs/SERVER.md)",
    )
    _add_graph_source_args(srv)
    _add_bfs_option_args(srv)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7475,
                     help="TCP port (0 = ephemeral; default 7475)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="sources per MS-BFS traversal (1-64, default 64)")
    srv.add_argument("--max-queue", type=int, default=1024,
                     help="admission bound: queries waiting beyond this are "
                          "rejected as overloaded (default 1024)")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="default per-query deadline in milliseconds; "
                          "queries still waiting past it fail with "
                          "error_code='deadline' (default: none)")
    srv.add_argument("--fault-retries", type=int, default=2,
                     help="batch retries (reseeded fault schedule, backoff) "
                          "after an unrecoverable FaultError (default 2)")
    srv.set_defaults(func=cmd_serve)

    dig = sub.add_parser(
        "digest",
        help="print deterministic sha256 digests of a BFS run "
             "(levels/stats/clock, plus trace when observed)",
    )
    _add_graph_source_args(dig)
    _add_bfs_option_args(dig)
    dig.add_argument("--source", type=int, default=0)
    dig.set_defaults(func=cmd_digest)

    cross = sub.add_parser("crossover", help="solve the 1D/2D crossover degree")
    cross.add_argument("--n", type=float, required=True)
    cross.add_argument("--p", type=float, required=True)
    cross.set_defaults(func=cmd_crossover)

    score = sub.add_parser(
        "scorecard", help="check every paper claim in one shot (PASS/FAIL table)"
    )
    score.add_argument("--seed", type=int, default=0)
    score.set_defaults(func=cmd_scorecard)

    fig = sub.add_parser("figure", help="regenerate one entry of the reproduction table")
    fig.add_argument("--name", required=True, choices=list(FIGURES))
    fig.add_argument("--out", default=None, metavar="DIR",
                     help="write <name>.txt/.csv/.vl.json here instead of printing")
    fig.set_defaults(func=cmd_figure)

    rep = sub.add_parser(
        "reproduce", help="regenerate every figure as text, CSV and Vega-Lite files"
    )
    rep.add_argument("--out", default="results", metavar="DIR")
    rep.set_defaults(func=cmd_reproduce)
    for view in (fig, rep):
        view.add_argument(
            "--tier", choices=["quick", "full"], default="quick",
            help="design points: quick (seconds; what the scorecard checks) or "
                 "full (what benchmarks/bench_reproduction.py asserts)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        configure_logging("DEBUG")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
