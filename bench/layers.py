"""Per-layer metrics: exact counters from results, host time from spans.

``PER_LAYER`` is the list ``BENCHMARK.json`` repeats.  A layer is a
``repro`` module.  ``*_ms_per_op`` host-time metrics are *self* times
(see ``tracing``), so on a one-caller workload they, ``layers.other`` and
``layers.unattributed_share`` account for the whole op.  An op is one
traversal, or one query on the serve workloads.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import ARGS, END, NAME, PARENT, START, totals

PER_LAYER = {
    "graph.build_s": "s",
    "partition.build_s": "s",
    "session.build_s": "s",
    "session.first_op_ms": "ms",
    "session.new_comm_us": "us",
    "session.self_ms_per_op": "ms",
    "bfs.topdown_self_ms_per_op": "ms",
    "bfs.bottomup_self_ms_per_op": "ms",
    "bfs.assemble_ms_per_op": "ms",
    "bfs.msbfs_self_ms_per_batch": "ms",
    "bfs.msbfs_batch_width": "count",
    "bfs.levels_per_op": "count",
    "bfs.edges_scanned_per_op": "count",
    "utils.segmented_unique_ms_per_op": "ms",
    "utils.segmented_unique_calls_per_op": "count",
    "collectives.fold_self_ms_per_op": "ms",
    "collectives.expand_self_ms_per_op": "ms",
    "collectives.rounds_per_op": "count",
    "runtime.exchange_arrays_ms_per_op": "ms",
    "runtime.exchange_dict_ms_per_op": "ms",
    "runtime.fastpath_share": "share",
    "runtime.messages_per_op": "count",
    "runtime.network_ms_per_op": "ms",
    "runtime.allreduce_ms_per_op": "ms",
    "runtime.charge_compute_ms_per_op": "ms",
    "runtime.clock_sync_ms_per_op": "ms",
    "runtime.expand_kb_per_op": "KB",
    "runtime.fold_kb_per_op": "KB",
    "runtime.raw16_ms_per_op": "ms",
    "runtime.slowdown16.wire": "ratio",
    "runtime.slowdown16.faults": "ratio",
    "runtime.slowdown16.observe": "ratio",
    "sim.comm_ms_per_op": "sim_ms",
    "sim.compute_ms_per_op": "sim_ms",
    "sim.fault_ms_per_op": "sim_ms",
    "wire.codec_ms_per_op": "ms",
    "wire.codec_calls_per_op": "count",
    "wire.compression_ratio": "ratio",
    "faults.schedule_ms_per_op": "ms",
    "faults.retransmits_per_op": "count",
    "faults.replayed_levels_per_op": "count",
    "faults.checkpoint_kb_per_op": "KB",
    "observability.record_ms_per_op": "ms",
    "observability.events_per_op": "count",
    "observability.digest_ms_per_op": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.traverse_ms_per_batch": "ms",
    "server.view_ms_per_batch": "ms",
    "server.reply_ms_per_query": "ms",
    "server.protocol_us_per_query": "us",
    "server.batch_width_mean": "count",
    "server.batches": "count",
    "server.worker_busy_share": "share",
    "server.rejected": "count",
    "server.op_ms_p99": "ms",
    "server.slo500_miss_share": "share",
    "server.loadgen_late_ms_p99": "ms",
    "layers.other_ms_per_op": "ms",
    "layers.unattributed_share": "share",
    "trace.overhead_share": "share",
    "trace.exact_mismatches": "count",
}

#: every other layer metric is better when lower
HIGHER_IS_BETTER = (
    "runtime.fastpath_share", "wire.compression_ratio", "bfs.msbfs_batch_width",
    "server.batch_width_mean",
)

#: span names behind each self-time metric (milliseconds per op)
SELF_MS = {
    "session.self_ms_per_op": ("session.traverse",),
    # a served single-query batch runs unlabelled steps; serving is top-down
    "bfs.topdown_self_ms_per_op": ("bfs.step.top-down", "bfs.step"),
    "bfs.bottomup_self_ms_per_op": ("bfs.step.bottom-up",),
    "bfs.assemble_ms_per_op": ("bfs.run_bfs", "bfs.assemble_levels", "bfs.start"),
    "utils.segmented_unique_ms_per_op": ("utils.segmented_unique",),
    "collectives.fold_self_ms_per_op": ("collectives.fold",),
    "collectives.expand_self_ms_per_op": ("collectives.expand",),
    "runtime.exchange_arrays_ms_per_op": ("runtime.exchange_arrays",),
    "runtime.exchange_dict_ms_per_op": ("runtime.exchange",),
    "runtime.network_ms_per_op": ("runtime.network",),
    "runtime.allreduce_ms_per_op": ("runtime.allreduce",),
    "runtime.charge_compute_ms_per_op": ("runtime.charge_compute",),
    "runtime.clock_sync_ms_per_op": ("runtime.clock_sync",),
    "wire.codec_ms_per_op": ("wire.codec",),
    "faults.schedule_ms_per_op": ("faults.schedule",),
    "observability.record_ms_per_op": (
        "observability.span", "observability.trace_exchange"),
    "observability.digest_ms_per_op": ("observability.levels_digest",),
}

#: counters that must repeat exactly for one seed (and under tracing)
EXACT = (
    "sim_ms_per_traversal", "wire_kb_per_traversal", "bfs.levels_per_op",
    "bfs.edges_scanned_per_op", "bfs.msbfs_batch_width",
    "runtime.messages_per_op", "runtime.expand_kb_per_op",
    "runtime.fold_kb_per_op", "sim.comm_ms_per_op", "sim.compute_ms_per_op",
    "sim.fault_ms_per_op", "wire.compression_ratio",
    "faults.retransmits_per_op", "faults.replayed_levels_per_op",
    "faults.checkpoint_kb_per_op", "observability.events_per_op",
)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def exact_counters(log: list) -> dict[str, float]:
    """The ``EXACT`` metrics of a slice of ``RecordingSession.log``."""
    ops = sum(t.width for t in log)
    if not ops:
        return dict.fromkeys(EXACT, 0.0)
    stats = [t.stats for t in log]
    reports = [t.faults for t in log if t.faults is not None]
    batches = [t.width for t in log if t.width > 1]
    raw = sum(s.total_bytes for s in stats)
    encoded = sum(s.total_encoded_bytes for s in stats)

    def per_op(total: float, scale: float = 1.0) -> float:
        return total * scale / ops

    return {
        # per traversal, not per query: a batch's simulated time and bytes
        # barely move with its width, which on serve-open follows host speed
        "sim_ms_per_traversal": 1e3 * sum(t.elapsed for t in log) / len(log),
        "wire_kb_per_traversal": 1e-3 * encoded / len(log),
        "bfs.levels_per_op": per_op(sum(len(s.levels) for s in stats)),
        "bfs.edges_scanned_per_op": per_op(sum(s.total_edges_scanned for s in stats)),
        "bfs.msbfs_batch_width": statistics.fmean(batches) if batches else 0.0,
        "runtime.messages_per_op": per_op(sum(s.total_messages for s in stats)),
        "runtime.expand_kb_per_op": per_op(
            sum(s.encoded_bytes_by_phase.get("expand", 0) for s in stats), 1e-3),
        "runtime.fold_kb_per_op": per_op(
            sum(s.encoded_bytes_by_phase.get("fold", 0) for s in stats), 1e-3),
        "sim.comm_ms_per_op": per_op(sum(t.comm_time for t in log), 1e3),
        "sim.compute_ms_per_op": per_op(sum(t.compute_time for t in log), 1e3),
        "sim.fault_ms_per_op": per_op(
            sum(lv.fault_seconds for s in stats for lv in s.levels), 1e3),
        "wire.compression_ratio": raw / encoded if encoded else 1.0,
        "faults.retransmits_per_op": per_op(sum(s.total_retries for s in stats)),
        "faults.replayed_levels_per_op": per_op(
            sum(r.rollbacks + r.replayed_levels for r in reports)),
        "faults.checkpoint_kb_per_op": per_op(
            sum(r.checkpoint_bytes for r in reports), 1e-3),
        "observability.events_per_op": per_op(sum(t.events for t in log)),
    }


def _exchange_rounds(spans: list[list]) -> tuple[int, int]:
    """(message rounds, rounds that stayed on the array fast path).

    An ``exchange_arrays`` call that falls back re-enters ``exchange``
    (directly, or through the message recorder's override), so it shows
    as a child span; a fast one has no such child.
    """
    arrays = slow = others = 0
    for rec in spans:
        name = rec[NAME]
        if name == "runtime.exchange_arrays":
            arrays += 1
        elif name in ("runtime.exchange", "observability.trace_exchange",
                      "runtime.exchange_summaries"):
            parent = rec[PARENT]
            if parent is not None and parent[NAME] == "runtime.exchange_arrays":
                slow += 1
            if name != "observability.trace_exchange":
                others += 1
    fast = arrays - slow
    return others + fast, fast


def _serve_stages(spans, admitted, rounds):
    """Split each served query's latency at the worker's traversal.

    The admission queue is FIFO and each traversal takes the next
    ``width`` admitted queries, so the k-th traversal span on the worker
    thread holds a known set of query ids — which is also written into
    that span's args for the Chrome trace.
    """
    batches = [rec for rec in spans
               if rec[NAME] == "session.traverse" and rec[PARENT] is None]
    batch_of, taken = {}, 0
    for rec in batches:
        width = rec[ARGS]["width"]
        rec[ARGS]["queries"] = admitted[taken:taken + width]
        for qid in rec[ARGS]["queries"]:
            batch_of[qid] = rec
        taken += width
    wait, reply, staged, total = [], [], 0.0, 0.0
    for rnd in rounds:
        for qid, start, submit, resume, end in rnd.ops:
            rec = batch_of.get(qid)
            if rec is None:
                continue
            wait.append(rec[START] - submit)
            reply.append(resume - rec[END])
            staged += resume - submit
            total += end - start
    return wait, reply, staged, total


def layer_metrics(tracer, mark, traced, untraced, driver) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run (0 where a layer
    does no work on this workload).

    ``mark`` is the span count when the timed traced rounds began:
    earlier spans are set-up and warm-up.
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    setup, run_spans = totals(tracer.spans[:mark]), tracer.spans[mark:]
    run = totals(run_spans)
    zero = (0, 0.0, 0.0)
    ops = sum(r.attempted for r in traced) or 1
    serve = hasattr(driver, "service")

    def calls(name): return run.get(name, zero)[0]
    def incl(name): return run.get(name, zero)[1]
    def self_s(name): return run.get(name, zero)[2]

    # set-up
    m["graph.build_s"] = setup.get("graph.build_graph", zero)[1]
    m["partition.build_s"] = setup.get("partition.build", zero)[1]
    m["session.build_s"] = setup.get("session.init", zero)[1] - m["partition.build_s"]
    latencies = [s for r in traced for s in r.latencies]
    plain = [s for r in untraced for s in r.latencies]
    if driver.warm and latencies:
        m["session.first_op_ms"] = 1e3 * (driver.warm[0] - statistics.median(latencies))

    # exact counters, and whether tracing left them alone
    traced_exact = exact_counters([e for r in traced for e in r.log])
    m.update({k: v for k, v in traced_exact.items() if k in PER_LAYER})
    if not getattr(driver, "open_loop", False):
        # round by round: every round runs the same ops, and sums over
        # different numbers of rounds would differ in the last float bit
        per_round = [exact_counters(r.log) for r in traced + untraced]
        m["trace.exact_mismatches"] = sum(
            any(other[k] != per_round[0][k] for other in per_round) for k in EXACT)

    # host self time per layer
    named = {"op", "bfs.run_ms_bfs", "runtime.new_comm", "bfs.rebind", "server.query_view"}
    for metric, names in SELF_MS.items():
        m[metric] = 1e3 * sum(self_s(n) for n in names) / ops
        named.update(names)
    m["layers.other_ms_per_op"] = 1e3 * sum(
        row[2] for name, row in run.items() if name not in named) / ops
    m["session.new_comm_us"] = 1e6 * (incl("runtime.new_comm") + incl("bfs.rebind")) / ops
    if calls("bfs.run_ms_bfs"):
        m["bfs.msbfs_self_ms_per_batch"] = (
            1e3 * self_s("bfs.run_ms_bfs") / calls("bfs.run_ms_bfs"))
    m["utils.segmented_unique_calls_per_op"] = calls("utils.segmented_unique") / ops
    m["wire.codec_calls_per_op"] = calls("wire.codec") / ops
    rounds, fast = _exchange_rounds(run_spans)
    m["collectives.rounds_per_op"] = rounds / ops
    m["runtime.fastpath_share"] = fast / rounds if rounds else 0.0

    if plain and latencies:
        base = statistics.median(plain)
        m["trace.overhead_share"] = (statistics.median(latencies) - base) / base
    if not serve:
        m["layers.unattributed_share"] = self_s("op") / incl("op") if incl("op") else 0.0
        return m

    # the serving path, stage by stage
    wait, reply, staged, total = _serve_stages(tracer.spans, driver.admitted, traced)
    batches = calls("session.traverse") or 1
    wall = sum(r.wall for r in traced)
    m["server.queue_wait_ms_p50"] = 1e3 * percentile(wait, 50)
    m["server.traverse_ms_per_batch"] = 1e3 * incl("session.traverse") / batches
    m["server.view_ms_per_batch"] = 1e3 * incl("server.query_view") / batches
    m["server.reply_ms_per_query"] = 1e3 * statistics.fmean(reply) if reply else 0.0
    m["server.protocol_us_per_query"] = 1e6 * incl("server.protocol") / ops
    m["server.batches"] = float(calls("session.traverse"))
    m["server.batch_width_mean"] = ops / batches
    m["server.worker_busy_share"] = incl("session.traverse") / wall if wall else 0.0
    m["server.rejected"] = float(driver.service.metrics.rejected)
    m["layers.unattributed_share"] = (
        1.0 - (staged + incl("server.protocol")) / total if total else 0.0)
    # tail, misses and lateness as users see them: from the untraced rounds
    m["server.op_ms_p99"] = 1e3 * min(percentile(r.latencies, 99) for r in untraced)
    attempted = sum(r.attempted for r in untraced) or 1
    m["server.slo500_miss_share"] = (
        sum(s > 0.5 for s in plain) + sum(r.failed for r in untraced)) / attempted
    m["server.loadgen_late_ms_p99"] = 1e3 * percentile(
        [s for r in untraced for s in r.late], 99)
    return m
