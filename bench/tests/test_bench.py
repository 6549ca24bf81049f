"""Self-tests of the benchmark harness, on ``--smoke`` sized inputs.

    python -m pytest bench/tests

They check the measuring stick, not the program's speed: every metric is
emitted, exact counters repeat, a wrong answer is caught, the load
generators behave as documented, and traced self times add up.
"""

import asyncio
import functools
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import measure
import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def smoke(name: str, seed: int = 7, trace: bool = False) -> dict:
    return measure.run_workload(name, seed, trace=trace, smoke=True)


def values(result: dict) -> dict[str, float]:
    return {k: cell["value"] for k, cell in result["metrics"].items()}


# ---------------------------------------------------------------------- #
# BENCHMARK.json says what the code does
# ---------------------------------------------------------------------- #
def test_benchmark_json_repeats_the_tables_in_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == measure.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert {m["name"] for m in SPEC["per_layer"] if m["better"] == "higher"} == set(
        layers.HIGHER_IS_BETTER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == measure.END_TO_END["setup_s"][2]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = smoke(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(measure.END_TO_END)
    for metric, cell in result["metrics"].items():
        assert cell["unit"] == measure.END_TO_END[metric][0]
        assert cell["value"] > 0, metric
    assert result["detail"]["samples"] == result["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(name):
    result = smoke(name, trace=True)
    assert result["correct"], result["detail"]["mismatch"]
    assert list(result["metrics"]) == list(layers.PER_LAYER)
    got = values(result)
    assert got["trace.exact_mismatches"] == 0
    assert 0 <= got["layers.unattributed_share"] <= 0.15
    assert got["graph.build_s"] > 0 and got["partition.build_s"] > 0
    assert got["sim.comm_ms_per_op"] > 0 and got["runtime.messages_per_op"] > 0


def test_layers_do_the_work_the_workloads_were_chosen_for():
    fast, knobs = values(smoke("mesh-fast", trace=True)), values(smoke("mesh-knobs", trace=True))
    assert fast["runtime.fastpath_share"] == 1.0
    assert fast["wire.codec_calls_per_op"] == 0 and fast["sim.fault_ms_per_op"] == 0
    assert knobs["runtime.fastpath_share"] == 0.0
    assert knobs["wire.codec_calls_per_op"] > 0 and knobs["wire.compression_ratio"] > 1
    assert knobs["faults.schedule_ms_per_op"] > 0
    assert knobs["observability.events_per_op"] == knobs["runtime.messages_per_op"]
    assert knobs["runtime.raw16_ms_per_op"] > 0 and knobs["runtime.slowdown16.wire"] > 1
    hybrid = values(smoke("rmat-hybrid", trace=True))
    assert hybrid["bfs.bottomup_self_ms_per_op"] > 0 < hybrid["bfs.topdown_self_ms_per_op"]
    assert values(smoke("data-topdown", trace=True))["bfs.bottomup_self_ms_per_op"] == 0
    closed = values(smoke("serve-closed", trace=True))
    assert closed["server.batch_width_mean"] == 64 == closed["bfs.msbfs_batch_width"]
    assert closed["observability.digest_ms_per_op"] > 0
    assert 0 < closed["server.worker_busy_share"] <= 1
    opened = values(smoke("serve-open", trace=True))
    assert 1 <= opened["server.batch_width_mean"] < 64
    assert opened["server.loadgen_late_ms_p99"] > 0 and opened["server.queue_wait_ms_p50"] > 0


# ---------------------------------------------------------------------- #
# exact counters
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", [n for n in NAMES if n != "serve-open"])
def test_simulated_clock_and_bytes_repeat_for_a_seed_and_follow_it(name):
    exact = ("sim_ms_per_traversal", "wire_kb_per_traversal")
    first = values(smoke(name))
    again = values(measure.run_workload(name, 7, smoke=True))
    other = values(smoke(name, seed=8))
    assert [first[k] for k in exact] == [again[k] for k in exact]
    # bytes can tie on a tiny fully-reached graph; the simulated clock cannot
    assert first[exact[0]] != other[exact[0]]


# ---------------------------------------------------------------------- #
# the oracle and failure accounting
# ---------------------------------------------------------------------- #
def test_oracle_levels_on_a_graph_small_enough_to_read():
    #  0 - 1 - 2   3 (isolated)   4 - 0
    indptr = np.array([0, 2, 4, 5, 5, 6])
    indices = np.array([1, 4, 0, 2, 1, 0])
    adj = oracle.adjacency(indptr, indices)
    assert oracle.oracle_levels(adj, 0).tolist() == [0, 1, 2, -1, 1]
    assert oracle.oracle_levels(adj, 2).tolist() == [2, 1, 0, -1, 3]
    assert oracle.first_difference(np.array([0, 1, 2]), np.array([0, 1, 2])) is None
    assert oracle.first_difference(np.array([0, 1, 2]), np.array([0, 3, 2])) == 1


@pytest.mark.parametrize("name", ["data-topdown", "rmat-hybrid", "serve-closed"])
def test_a_wrong_answer_fails_every_op_and_is_named(name, monkeypatch):
    honest = oracle.oracle_levels

    def off_by_one(adj, source):
        levels = honest(adj, source)
        levels[(source + 1) % levels.size] += 1
        return levels

    monkeypatch.setattr(oracle, "oracle_levels", off_by_one)
    result = measure.run_workload(name, 7, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    why = result["detail"]["mismatch"]
    assert why.startswith(f"{name} op 0 source ")
    assert "oracle" in why


# ---------------------------------------------------------------------- #
# load generators
# ---------------------------------------------------------------------- #
def test_closed_loop_batches_are_all_64_wide_after_warm_up():
    async def main():
        driver = workloads.make_driver("serve-closed", 7, smoke=True)
        await driver.setup()
        driver.answer_key()
        try:
            return await driver.round()
        finally:
            await driver.close()

    rnd = asyncio.run(main())
    assert rnd.failed == 0 and rnd.attempted == 256
    assert [t.width for t in rnd.log] == [64] * 4


def test_open_loop_times_from_the_due_time_and_reports_lateness():
    async def stalling(i):
        if i == 0:
            time.sleep(0.05)  # blocks the loop: the generator itself runs late
        return i

    dues = np.array([0.0, 0.01, 0.02])
    wall, results = asyncio.run(workloads.open_loop(stalling, dues))
    by_op = {i: (seconds, late) for i, seconds, _, _, late in results}
    assert by_op[0][0] >= 0.05
    # op 1 was due during the stall: it starts late, and the wait counts
    assert by_op[1][1] >= 0.03 and by_op[1][0] >= by_op[1][1]
    assert wall >= 0.05
    assert [r[2] for r in results] == [0, 1, 2]


def test_a_refused_query_takes_no_place_in_a_batch():
    async def main():
        driver = workloads.make_driver("serve-open", 7, smoke=True)
        await driver.setup()
        try:
            limit, driver.service.max_queue = driver.service.max_queue, 0
            refused = await driver.query(0)
            driver.service.max_queue = limit
            served = await driver.query(1)
            return refused, served, driver.admitted
        finally:
            await driver.close()

    refused, served, admitted = asyncio.run(main())
    assert refused[1].error_code == "overloaded" and served[1].ok
    # the k-th traversal is matched to the next ``width`` ids of this list
    assert refused[0] not in admitted and admitted[-1] == served[0]


def test_arrivals_and_sources_follow_the_seed():
    assert np.array_equal(workloads.arrival_times(50, 100.0, 3),
                          workloads.arrival_times(50, 100.0, 3))
    assert not np.array_equal(workloads.arrival_times(50, 100.0, 3),
                              workloads.arrival_times(50, 100.0, 4))
    indptr = np.array([0, 0, 1, 2, 2, 3])
    assert set(workloads.pick_sources(indptr, 3, 1)) == {1, 2, 4}


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def test_traced_self_times_sum_to_the_op_wall():
    async def main():
        tracer = tracing.Tracer()
        tracing.install(tracer)
        driver = workloads.make_driver("mesh-knobs", 7, smoke=True, tracer=tracer)
        try:
            await driver.setup()
            driver.answer_key()
            mark = len(tracer.spans)
            rnd = await driver.round()
            return tracer.spans[mark:], rnd
        finally:
            tracer.uninstall()
            await driver.close()

    spans, rnd = asyncio.run(main())
    dur, self_time, parent = tracing.tree(spans)
    roots = [i for i, rec in enumerate(spans) if rec[tracing.NAME] == "op"]
    assert len(roots) == rnd.attempted and all(parent[i] < 0 for i in roots)
    assert self_time.sum() == pytest.approx(dur[roots].sum(), rel=0.01)
    assert dur[roots].sum() == pytest.approx(sum(rnd.latencies), rel=0.01)
    assert self_time.min() >= -1e-9


def test_uninstall_puts_every_callable_back():
    from repro.bfs import level_sync
    from repro.runtime.comm import Communicator
    from repro.session import run_bfs

    before = (Communicator.exchange, Communicator.__init__, level_sync.run_bfs, run_bfs)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert Communicator.exchange is not before[0]
    import repro.session
    assert repro.session.run_bfs is not before[3]
    tracer.uninstall()
    assert (Communicator.exchange, Communicator.__init__, level_sync.run_bfs,
            repro.session.run_bfs) == before


# ---------------------------------------------------------------------- #
# compare.py
# ---------------------------------------------------------------------- #
def _report(**overrides) -> dict:
    cells = {name: {"unit": unit, "better": better, "bound": bound, "value": 100.0,
                    "spread": 0.01}
             for name, (unit, better, bound) in measure.END_TO_END.items()}
    for name, fields in overrides.items():
        cells[name] = {**cells[name], **fields}
    return {"seed": 7, "smoke": True, "seconds": 1, "commit": "abc",
            "workloads": {"mesh-fast": {"failed": 0, "attempted": 9, "end_to_end": cells}}}


def test_compare_verdicts():
    base = _report()
    assert compare.compare(base, base)[1]
    rows, ok = compare.compare(base, _report(op_ms_p50={"value": 140.0}))
    assert not ok and any("op_ms_p50" in r and "worse" in r for r in rows)
    rows, ok = compare.compare(base, _report(ops_per_s={"value": 140.0}))
    assert ok and any("ops_per_s" in r and "better" in r for r in rows)
    rows, ok = compare.compare(base, _report(op_ms_p50={"value": 140.0, "spread": 0.3}))
    assert ok and any("op_ms_p50" in r and "unresolved" in r for r in rows)
    rows, ok = compare.compare(base, _report(sim_ms_per_traversal={"value": 100.0001}))
    assert not ok and any("sim_ms_per_traversal" in r and "CHANGED" in r for r in rows)


# ---------------------------------------------------------------------- #
# the command line
# ---------------------------------------------------------------------- #
def test_run_py_prints_the_result_line_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "rmat-hybrid",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == set(measure.END_TO_END)


def test_run_py_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mesh-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
