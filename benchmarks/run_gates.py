"""Unified benchmark gate runner — one entry point for every CI bench gate.

Each gate wraps one benchmark's CI smoke invocation (the exact commands
the workflow used to spell inline, per job) behind a registered name, so
the workflow reduces to a single matrixed job::

    PYTHONPATH=src python benchmarks/run_gates.py --gate simulator
    python benchmarks/run_gates.py --all          # local pre-push sweep
    python benchmarks/run_gates.py --list

Gates run from the repo root with ``PYTHONPATH=src`` injected, so the
runner works from any cwd and without ambient environment.  A gate
passes when every one of its steps exits 0; the runner exits with the
number of failed gates.  Report artifacts (``BENCH_*.json``, traces,
service-chaos/server reports) land in the repo root where the workflow's upload
step collects them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra or {})
    return env


@dataclass
class Gate:
    """One named bench gate: a sequence of commands that must all pass."""

    name: str
    description: str
    steps: list[list[str]]
    #: report files the workflow uploads (informational; missing is fine)
    artifacts: list[str] = field(default_factory=list)

    def run(self) -> bool:
        for cmd in self.steps:
            print(f"[{self.name}] $ {' '.join(cmd)}", flush=True)
            proc = subprocess.run(cmd, cwd=REPO_ROOT, env=_env())
            if proc.returncode != 0:
                print(f"[{self.name}] FAILED (exit {proc.returncode})")
                return False
        print(f"[{self.name}] ok")
        return True


_SERVER_PROBE = """
import asyncio
from repro.server import TcpQueryClient

async def main():
    async with TcpQueryClient("127.0.0.1", {port}) as client:
        assert (await client.ping()).ok
        replies = [await client.query(s) for s in range(10)]
        assert all(r.ok for r in replies), replies
        stats = await client.stats()
        assert stats.extra["stats"]["served"] == 10
        print("served:", stats.extra["stats"])

asyncio.run(main())
"""

#: boots against a crash-spare session: drives concurrent queries, checks
#: every reply against locally-computed fault-free digests, watches p99,
#: and verifies health/fault counters — then writes the report artifact.
_SERVICE_CHAOS_PROBE = """
import asyncio
import json
import time

import numpy as np

from repro.graph.generators import poisson_random_graph
from repro.observability.digest import levels_digest
from repro.server import TcpQueryClient
from repro.session import BfsSession
from repro.types import GraphSpec

PORT = {port}
QUERIES, CONCURRENCY = 96, 12
P99_CEILING_S = 30.0

async def main():
    graph = poisson_random_graph(GraphSpec(n=2000, k=8.0, seed=7))
    clean = BfsSession(graph, (2, 2))
    step = max(1, graph.n // QUERIES)
    sources = list(range(0, graph.n, step))[:QUERIES]
    expected = {s: levels_digest(clean.bfs(s).levels) for s in sources}

    conns = [
        await TcpQueryClient("127.0.0.1", PORT).connect()
        for _ in range(CONCURRENCY)
    ]
    replies = [None] * len(sources)
    latencies = [0.0] * len(sources)
    next_index = 0
    lock = asyncio.Lock()

    async def worker(conn):
        nonlocal next_index
        while True:
            async with lock:
                i = next_index
                if i >= len(sources):
                    return
                next_index += 1
            t0 = time.perf_counter()
            replies[i] = await conn.query(sources[i])
            latencies[i] = time.perf_counter() - t0

    t0 = time.perf_counter()
    await asyncio.gather(*(worker(conn) for conn in conns))
    wall = time.perf_counter() - t0
    for conn in conns:
        await conn.close()

    bad = [r for r in replies if r is None or not r.ok]
    assert not bad, f"unanswered/failed queries under faults: {bad[:3]}"
    wrong = [
        s for s, r in zip(sources, replies)
        if r.result["levels_digest"] != expected[s]
    ]
    assert not wrong, f"faulted digests diverge from fault-free: {wrong[:5]}"

    p50 = float(np.percentile(np.array(latencies), 50.0))
    p99 = float(np.percentile(np.array(latencies), 99.0))
    assert p99 < P99_CEILING_S, f"p99 {p99:.2f}s over {P99_CEILING_S}s ceiling"

    async with TcpQueryClient("127.0.0.1", PORT) as client:
        health = (await client.health()).extra["health"]
        assert health["state"] == "ok" and health["ready"], health
        assert health["faulted"], "server is not running a fault schedule"
        stats = (await client.stats()).extra["stats"]
        assert stats["served"] >= QUERIES, stats
        assert stats["fault_failures"] == 0, stats

    report = {
        "queries": QUERIES, "concurrency": CONCURRENCY,
        "qps": round(QUERIES / wall, 2),
        "p50_ms": round(p50 * 1e3, 3), "p99_ms": round(p99 * 1e3, 3),
        "fault_retries": stats["fault_retries"],
        "fault_failures": stats["fault_failures"],
        "deadline_exceeded": stats["deadline_exceeded"],
        "mean_batch_size": stats["mean_batch_size"],
    }
    with open("service-chaos-report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write(chr(10))
    print("service-chaos:", report)

asyncio.run(main())
"""


@dataclass
class ServerGate(Gate):
    """The server gate boots the TCP session server around its steps."""

    #: extra ``repro.cli serve`` flags (fault schedules, retry budget, ...)
    serve_args: list[str] = field(default_factory=list)
    #: probe script run against the live server (receives the port via
    #: ``{port}`` formatting and the REPRO_GATE_PORT env var)
    probe: str = ""
    probe_label: str = "<TCP probe: ping + 10 queries>"
    default_port: int = 7475

    def run(self) -> bool:
        port = int(os.environ.get("REPRO_GATE_PORT", str(self.default_port)))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--n", "2000", "--k", "8", "--seed", "7",
             "--grid", "2x2", "--port", str(port), *self.serve_args],
            cwd=REPO_ROOT, env=_env(),
        )
        try:
            if not self._wait_for_server(port, server):
                return False
            print(f"[{self.name}] $ {self.probe_label}", flush=True)
            probe = subprocess.run(
                [sys.executable, "-c", self.probe.replace("{port}", str(port))],
                cwd=REPO_ROOT, env=_env({"REPRO_GATE_PORT": str(port)}),
            )
            if probe.returncode != 0:
                print(f"[{self.name}] FAILED (probe exit {probe.returncode})")
                return False
        finally:
            server.terminate()
            server.wait(timeout=10)
        return super().run()

    def _wait_for_server(self, port: int, server: subprocess.Popen) -> bool:
        import socket

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if server.poll() is not None:
                print(f"[{self.name}] FAILED (server died, exit {server.returncode})")
                return False
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                    return True
            except OSError:
                time.sleep(0.25)
        print(f"[{self.name}] FAILED (server never opened port {port})")
        return False


def _py(*args: str) -> list[str]:
    return [sys.executable, *args]


GATES: dict[str, Gate] = {
    gate.name: gate
    for gate in [
        Gate(
            "simulator",
            "simulator throughput smoke + regression gate",
            [_py("benchmarks/bench_simulator_throughput.py", "--tiny", "--check")],
            artifacts=["BENCH_simulator.json", "benchmarks/simulator_baseline.json"],
        ),
        Gate(
            "observability",
            "observability overhead smoke + Perfetto trace",
            [_py("benchmarks/bench_observability_overhead.py",
                 "--tiny", "--check", "--tolerance", "0.35",
                 "--trace-out", "perfetto-trace-tiny.json")],
            artifacts=["BENCH_observability.json", "perfetto-trace-tiny.json"],
        ),
        ServerGate(
            "server",
            "TCP server boot + probe, loadgen digests, batched-throughput gate",
            [_py("-m", "repro.server.loadgen",
                 "--tiny", "--queries", "100", "--transport", "tcp"),
             _py("-m", "repro.server.loadgen", "--tiny", "--check")],
            artifacts=["BENCH_server.json"],
            probe=_SERVER_PROBE,
        ),
        ServerGate(
            "service-chaos",
            "TCP server under crash-spare faults: digests, p99, health",
            [],
            artifacts=["service-chaos-report.json"],
            serve_args=["--faults", "crash-spare", "--fault-retries", "2"],
            probe=_SERVICE_CHAOS_PROBE,
            probe_label="<chaos probe: 96 queries vs fault-free digests>",
            default_port=7493,
        ),
    ]
}


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="append", default=[],
                        choices=sorted(GATES), metavar="NAME",
                        help="run this gate (repeatable)")
    parser.add_argument("--all", action="store_true", help="run every gate")
    parser.add_argument("--list", action="store_true",
                        help="list registered gates and exit")
    args = parser.parse_args(argv)

    if args.list:
        for gate in GATES.values():
            print(f"{gate.name:>14}  {gate.description}")
        return 0
    names = list(GATES) if args.all else args.gate
    if not names:
        parser.error("pick --gate NAME (repeatable), --all, or --list")

    failed = [name for name in names if not GATES[name].run()]
    print(f"\n{len(names) - len(failed)}/{len(names)} gates passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return len(failed)


if __name__ == "__main__":
    sys.exit(main())
