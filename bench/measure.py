"""Run one workload in this process and turn its rounds into metrics.

Noise control, on a shared two-core box whose speed drifts by 10-40 % for
seconds at a time: set-up is timed ``SETUP_REPS`` times and the median
reported; the timed phase is whole rounds of a fixed op list, repeated
until ``seconds`` is used up; each round yields its own p50 and rate, and
the run reports its *quietest* round (lowest latency, highest rate).
Interference only ever adds time, so the quietest round is the one that
measured the program rather than the neighbours; a burst has to cover
every round of a run to move the metric.  The p90 is taken inside a round
too; it is a tail only where a round has >= 100 ops (``rmat-hybrid``, the
serve workloads) and close to the round's slowest op elsewhere.
``gc.collect()`` runs before each timed
phase and the collector stays enabled during it, as it is for users.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time

import repro

from layers import PER_LAYER, exact_counters, layer_metrics, percentile
from tracing import Tracer, install, write_chrome_trace
from workloads import Round, make_driver

#: name -> (unit, better, bound); BENCHMARK.json repeats this table
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_p90": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "sim_ms_per_traversal": ("sim_ms", "lower", 0.15),
    "wire_kb_per_traversal": ("KB", "lower", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.20),
}
#: how a run's rounds combine: timings take the quietest round; the
#: simulated clock and bytes repeat every round (median = any of them)
ACROSS_ROUNDS = {"op_ms_p50": min, "op_ms_p90": min, "ops_per_s": max,
                 "sim_ms_per_traversal": statistics.median,
                 "wire_kb_per_traversal": statistics.median}
SETUP_REPS = 3
DEFAULT_SECONDS = 15

clock = time.perf_counter


async def _rounds(driver, seconds: float, single: bool) -> list[Round]:
    """Whole rounds until the next one would overrun ``seconds``."""
    rounds, deadline = [], clock() + seconds
    while True:
        gc.collect()
        t0 = clock()
        rounds.append(await driver.round())
        if single or 2 * clock() - t0 > deadline:
            return rounds


def round_values(rnd: Round) -> dict[str, float]:
    """One round's value of each end-to-end metric measured per round."""
    counters = exact_counters(rnd.log)
    return {
        "op_ms_p50": 1e3 * percentile(rnd.latencies, 50),
        "op_ms_p90": 1e3 * percentile(rnd.latencies, 90),
        "ops_per_s": len(rnd.latencies) / rnd.wall if rnd.wall else 0.0,
        "sim_ms_per_traversal": counters["sim_ms_per_traversal"],
        "wire_kb_per_traversal": counters["wire_kb_per_traversal"],
    }


def slowdown16(graph, sources: list[int], grid: tuple[int, int]) -> dict[str, float]:
    """Host cost of each knob alone on a mesh the timed workload cannot
    afford: the better of two ops with the knob on, over the same with
    every knob off."""
    knobs = {"raw": {}, "wire": {"wire": "adaptive"}, "faults": {"faults": "mild"},
             "observe": {"observe": "messages"}}
    ms = {}
    for label, system in knobs.items():
        session = repro.BfsSession(graph, grid, system=repro.SystemSpec(**system))
        times = []
        for source in sources[:2]:
            t0 = clock()
            session.bfs(source)
            times.append(clock() - t0)
        ms[label] = 1e3 * min(times)
    out = {"runtime.raw16_ms_per_op": ms["raw"]}
    out.update({f"runtime.slowdown16.{k}": ms[k] / ms["raw"]
                for k in ("wire", "faults", "observe")})
    return out


async def _measure(name, seed, seconds, trace, smoke, trace_path) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)
    driver = make_driver(name, seed, smoke=smoke, tracer=tracer)
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPS):
            await driver.close()
            gc.collect()
            t0 = clock()
            await driver.setup()
            setups.append(clock() - t0)
        driver.answer_key()
        if not trace:
            rounds = await _rounds(driver, seconds, smoke)
            per_round = [round_values(r) for r in rounds]
            values = {k: pick(v[k] for v in per_round)
                      for k, pick in ACROSS_ROUNDS.items()}
            values["setup_s"] = statistics.median(setups)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            units = {k: unit for k, (unit, _, _) in END_TO_END.items()}
            detail = {"rounds": per_round, "setups": setups,
                      "latencies": [r.latencies for r in rounds]}
        else:
            mark = len(tracer.spans)
            traced = await _rounds(driver, seconds / 2, smoke)
            tracer.uninstall()
            driver.tracer = None
            untraced = await _rounds(driver, seconds / 2, smoke)
            rounds = traced + untraced
            values = layer_metrics(tracer, mark, traced, untraced, driver)
            if driver.cfg.system:
                values.update(slowdown16(
                    driver.graph, driver.sources, (4, 4) if smoke else (16, 16)))
            units = PER_LAYER
            detail = {"spans": len(tracer.spans)}
            if trace_path is not None:
                write_chrome_trace(tracer, trace_path, mark)
    finally:
        if tracer:
            tracer.uninstall()
        await driver.close()
    failed = sum(r.failed for r in rounds)
    if trace and values["trace.exact_mismatches"]:
        failed += 1
    detail.update(
        samples=sum(len(r.latencies) for r in rounds),
        mismatch=next((r.mismatch for r in rounds if r.mismatch), None),
    )
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        "detail": detail,
    }


def run_workload(
    name: str, seed: int = 7, seconds: float = DEFAULT_SECONDS, *,
    trace: bool = False, smoke: bool = False, trace_path=None,
) -> dict:
    """Measure one workload; returns the result line's four keys plus
    ``detail`` (per-round values, sample count, first mismatch)."""
    return asyncio.run(_measure(name, seed, seconds, trace, smoke, trace_path))
