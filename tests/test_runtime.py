"""Tests for the virtual runtime: clocks, messages, network, communicator, stats."""

from __future__ import annotations

import ast
import collections
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.network as network_module
from repro.bfs.serial import serial_bfs
from repro.collectives import get_fold
from repro.errors import BufferOverflowError, CommunicationError
from repro.faults import FaultSchedule, FaultSpec, KeyedDropStream
from repro.graph import build_graph
from repro.machine.bluegene import BLUEGENE_L, bluegene_l_torus_for
from repro.machine.cluster import flat_network_for
from repro.machine.mapping import TaskMapping, planar_mapping, row_major_mapping
from repro.machine.torus import Torus3D
from repro.runtime.clock import SimClock
from repro.runtime.comm import Communicator
from repro.runtime.network import Network
from repro.runtime.stats import CommStats
from repro.runtime.trace import TraceRecorder
from repro.session import BfsSession
from repro.types import GraphSpec, GridShape
from repro.wire import WIRE_CODECS, get_codec


def make_comm(p: int = 4, **knobs) -> Communicator:
    grid = GridShape(1, p)
    return Communicator(flat_network_for(grid), BLUEGENE_L, **knobs)


class TestSimClock:
    def test_advance_kinds(self):
        clock = SimClock(2)
        clock.advance_many(np.array([1.0, 0.0]), "compute")
        clock.advance_many(np.array([0.5, 0.0]), "comm")
        assert clock.time[0] == 1.5
        assert clock.compute_time[0] == 1.0
        assert clock.comm_time[0] == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock(1).advance_many(np.array([-1.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SimClock(1).advance_many(np.array([1.0]), "waiting")

    def test_sync_books_wait_as_comm(self):
        clock = SimClock(3)
        clock.advance_many(np.array([0.0, 2.0, 0.0]))
        horizon = clock.sync()
        assert horizon == 2.0
        assert (clock.time == 2.0).all()
        assert clock.comm_time[0] == 2.0 and clock.comm_time[1] == 0.0

    def test_sync_subset(self):
        clock = SimClock(3)
        clock.advance_many(np.array([5.0, 0.0, 0.0]))
        clock.sync([1, 2])
        assert clock.time[1] == 0.0  # untouched by rank 0

    def test_sync_duplicate_ranks(self):
        # Fancy-index += applies each duplicate's (identical) wait once, so
        # a rank listed twice behaves exactly like a rank listed once.
        clock = SimClock(3)
        clock.advance_many(np.array([0.0, 4.0, 0.0]))
        horizon = clock.sync([0, 0, 1])
        assert horizon == 4.0
        assert clock.time[0] == 4.0 and clock.time[1] == 4.0
        assert clock.comm_time[0] == 4.0  # waited once, not twice
        assert clock.comm_time[1] == 0.0
        assert clock.time[2] == 0.0  # not in the barrier

    def test_advance_many(self):
        clock = SimClock(3)
        clock.advance_many(np.array([1.0, 2.0, 3.0]), "comm")
        assert clock.elapsed == 3.0
        assert clock.max_comm_time == 3.0

    def test_advance_many_shape_checked(self):
        """A wrong-shape vector names the expected and the actual shape."""
        with pytest.raises(CommunicationError, match=r"shape \(3,\), got shape \(2,\)"):
            SimClock(3).advance_many(np.array([1.0, 2.0]))
        with pytest.raises(CommunicationError, match=r"got shape \(1, 3\)"):
            SimClock(3).advance_many(np.ones((1, 3)))


def round_times(net: Network, *transfers: tuple[int, int, int]):
    """Per-rank (send, recv) times of one round of (src, dst, vertices) transfers."""
    src, dst, vertices = np.array(transfers, dtype=np.int64).T
    send, recv, _ = net.round_times_arrays(
        src, dst, vertices * BLUEGENE_L.bytes_per_vertex
    )
    return send, recv


class TestNetwork:
    def test_self_send_free(self):
        grid = GridShape(1, 2)
        net = Network(flat_network_for(grid), BLUEGENE_L)
        send, recv = round_times(net, (0, 0, 100))
        assert send.sum() == 0 and recv.sum() == 0

    def test_longer_messages_cost_more(self):
        grid = GridShape(1, 2)
        net = Network(flat_network_for(grid), BLUEGENE_L)
        s1, _ = round_times(net, (0, 1, 10))
        s2, _ = round_times(net, (0, 1, 10_000))
        assert s2[0] > s1[0]

    def test_contention_on_shared_link(self):
        """Two transfers crossing the same physical link slow each other."""
        grid = GridShape(1, 3)
        mapping = row_major_mapping(grid, Torus3D(3, 1, 1))
        net = Network(mapping, BLUEGENE_L)
        lone, _ = round_times(net, (0, 1, 50_000))
        # 0->2 routes through node 1 on a 3-ring? No: wrap 0->2 is one hop.
        # Use 0->1 and 0->1-style overlap instead: both 0->1 and 2->1 share
        # no link, so use two transfers over the same directed link 0->1.
        shared, _ = round_times(net, (0, 1, 50_000), (0, 1, 50_000))
        assert shared[0] > lone[0] * 1.5

    def test_hops_reflected(self):
        grid = GridShape(1, 8)
        mapping = row_major_mapping(grid, Torus3D(8, 1, 1))
        net = Network(mapping, BLUEGENE_L)
        assert net.hops(0, 4) == 4
        near, _ = round_times(net, (0, 1, 0))
        far, _ = round_times(net, (0, 4, 0))
        assert far[0] > near[0]


    @pytest.mark.parametrize("shuffled", [False, True])
    def test_every_ring_pair_crosses_a_link(self, shuffled):
        """No two ranks share a node, so every wire pair of a ring — here
        the fold rings of a 64 x 64 mesh — routes over at least one link."""
        grid = GridShape(64, 64)
        torus = bluegene_l_torus_for(grid.size)
        mapping = planar_mapping(grid, torus)
        if shuffled:
            placement = np.random.default_rng(3).permutation(grid.size)
            mapping = TaskMapping(grid, torus, placement)
        net = Network(mapping, BLUEGENE_L)
        ranks = np.arange(grid.size, dtype=np.int64)
        succ = ranks - ranks % grid.cols + (ranks + 1) % grid.cols
        assert net.prepare_pairs(ranks, succ).lens.min() >= 1
        # and so does every pair of the shuffled torus at large
        nodes = mapping.rank_to_node
        _, lens = net._batch_route(nodes[ranks], nodes[np.roll(ranks, 7)])
        assert lens.min() >= 1

    def test_pair_ids_are_append_only(self):
        """A pair keeps the id it was first given; unseen pairs number on
        from the last id, in ``src * P + dst`` order, each with its route."""
        grid = GridShape(2, 4)
        net = Network(row_major_mapping(grid, Torus3D(2, 2, 2)), BLUEGENE_L)
        assert net.pair_ids(np.array([3, 0, 3]), np.array([1, 2, 1])).tolist() == [1, 0, 1]
        assert net.pair_ids(np.array([1, 3, 0]), np.array([1, 1, 2])).tolist() == [2, 1, 0]
        for src, dst, pair in ((0, 2, 0), (3, 1, 1), (1, 1, 2)):
            assert net._lens[pair] == net.hops(src, dst)

    def test_pattern_cache_is_bounded(self, monkeypatch):
        """A long batch loop keeps the memoised round patterns under the
        byte cap — least recently used out first — and every traversal
        and simulated time as the unbounded cache gives them."""
        graph = build_graph(GraphSpec(n=2000, k=8, seed=3))
        batches = np.random.default_rng(3).choice(graph.n, (12, 64)).tolist()
        unbounded = BfsSession(graph, (4, 4))
        expected = [unbounded.bfs_many(batch) for batch in batches]
        cap = 4 << 10
        assert unbounded._network._pattern_bytes > 4 * cap
        monkeypatch.setattr(network_module, "_PATTERN_CACHE_BYTES", cap)
        session = BfsSession(graph, (4, 4))
        net = session._network
        for batch, want in zip(batches, expected):
            got = session.bfs_many(batch)
            assert np.array_equal(got.levels, want.levels)
            assert got.elapsed == want.elapsed
            held = sum(4 * len(key[0]) for key in net._pattern_cache)
            assert held == net._pattern_bytes <= cap
        assert np.array_equal(got.levels[0], serial_bfs(graph, batches[-1][0]))


class TestCommunicator:
    def test_exchange_counts_exact_payloads(self):
        comm = make_comm(3, observe="messages")
        messages = [(0, 1, np.array([5, 6])), (2, 1, np.array([7]))]
        assert comm.exchange_arrays(*as_arrays(messages), "fold") is None
        assert [(e.src, e.dst, e.num_vertices) for e in comm.obs_trace.events] == [
            (0, 1, 2), (2, 1, 1)
        ]
        assert comm.stats.total_processed == 3

    def test_exchange_charges_time(self):
        comm = make_comm(2)
        comm.exchange_arrays(*as_arrays([(0, 1, np.arange(1000))]), "fold")
        assert comm.clock.elapsed > 0
        assert comm.clock.max_comm_time > 0

    def test_exchange_chunked_by_capacity(self):
        comm = make_comm(2, buffer_capacity=10, observe="messages")
        comm.exchange_arrays(*as_arrays([(0, 1, np.arange(25))]), "fold")
        assert [e.num_vertices for e in comm.obs_trace.events] == [10, 10, 5]
        assert comm.stats.total_messages == 3

    def test_barrier_syncs(self):
        comm = make_comm(2)
        comm.charge_compute_many(hash_lookups=np.array([1_000_000, 0]))
        comm.barrier()
        assert comm.clock.time[1] == comm.clock.time[0]

    def test_allreduce_sum(self):
        comm = make_comm(4)
        total = comm.allreduce_sum(np.array([1.0, 2.0, 3.0, 4.0]))
        assert total == 10.0
        assert (comm.clock.time > 0).all()

    def test_allreduce_flag(self):
        comm = make_comm(3)
        assert comm.allreduce_flag(np.array([0.0, 1.0, 0.0]))
        assert not comm.allreduce_flag(np.array([0.0, 0.0, 0.0]))

    def test_allreduce_min(self):
        comm = make_comm(3)
        assert comm.allreduce_min(np.array([3.0, 1.0, 2.0])) == 1.0

    def test_allreduce_shape_checked(self):
        comm = make_comm(3)
        with pytest.raises(CommunicationError):
            comm.allreduce_sum(np.array([1.0]))

    @pytest.mark.parametrize(
        "src, dst, nbytes, name",
        [
            ([0, 1, 2], [1, 2, 3], [1000], "nbytes"),
            ([0, 1, 2], [1, 2], [8, 8, 8], "dst"),
            ([0, 1, 2], [1, 2, -1], [8, 8, 8], "dst"),
            ([0, 4], [1, 2], [8, 8], "src"),
        ],
        ids=["one-size-broadcast", "short-dst", "rank-minus-one", "rank-P"],
    )
    def test_summary_arguments_checked(self, src, dst, nbytes, name):
        """Three messages with ``nbytes=[1000]`` would be priced as 3 x 1000
        bytes and booked as 1000: refused, naming the argument, before
        anything is counted or charged."""
        comm = make_comm(4)
        with pytest.raises(CommunicationError, match=rf"^{name} "):
            comm.exchange_summaries(np.array(src), np.array(dst), np.array(nbytes))
        assert comm.stats.total_messages == comm.stats.total_bytes == 0
        assert not comm.clock.time.any()

    def test_bad_rank_rejected(self):
        comm = make_comm(2)
        work = np.ones(5, dtype=np.int64)
        with pytest.raises(CommunicationError, match=r"edges_scanned .* shape \(2,\)"):
            comm.charge_compute_many(edges_scanned=work, hash_lookups=work, updates=work)

    @pytest.mark.parametrize("size", [1, 5], ids=["one-element", "P+1"])
    @pytest.mark.parametrize("name", ["edges_scanned", "hash_lookups", "updates"])
    def test_compute_vector_of_wrong_length_rejected(self, name, size):
        """A vector that is not one value per rank is refused, naming the
        argument, before any clock moves: a one-element vector would
        otherwise broadcast one rank's work onto every clock."""
        comm = make_comm(4)
        with pytest.raises(CommunicationError, match=rf"{name} must be a per-rank vector"):
            comm.charge_compute_many(**{name: np.full(size, 1000, dtype=np.int64)})
        assert not comm.clock.time.any()
        assert comm.stats.total_edges_scanned == 0

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("src", lambda a: {"src": a["src"][:, None]}),
            ("dst", lambda a: {"dst": a["dst"][:1]}),
            ("starts", lambda a: {"starts": a["starts"][:1]}),
            ("stops", lambda a: {"stops": np.append(a["stops"], 6)}),
            ("masks", lambda a: {"masks": np.ones(4, dtype=np.uint64)}),
            ("pop_idx", lambda a: {"pop_idx": np.zeros(3, dtype=np.int64)}),
            ("rounds", lambda a: {"rounds": np.array([1, 2])}),
            ("rounds", lambda a: {"rounds": np.array([0, 2, 1, 2])}),
            ("rounds", lambda a: {"rounds": np.array([0, 1])}),
            ("rounds", lambda a: {"rounds": np.array([[0, 2]])}),
        ],
        ids=[
            "src-2d", "dst-short", "starts-short", "stops-long", "masks-short",
            "pop_idx-long", "rounds-from-1", "rounds-decreasing", "rounds-short-end",
            "rounds-2d",
        ],
    )
    def test_exchange_argument_contract(self, name, bad):
        """A column of the wrong shape is refused, naming the argument,
        before anything is counted or charged: no NumPy broadcast error
        after the statistics moved, no mask column silently priced."""
        messages = [(0, 1, np.array([1, 2, 3])), (2, 3, np.array([4, 5, 6]))]
        src, dst, flat, starts, stops = as_arrays(messages)
        args = {"src": src, "dst": dst, "flat": flat, "starts": starts, "stops": stops}
        comm = make_comm(4)
        with pytest.raises(CommunicationError, match=rf"^{name} must"):
            comm.exchange_arrays(**{**args, **bad(args)}, phase="fold")
        assert not comm.clock.time.any()
        assert stats_fields(comm.stats) == stats_fields(make_comm(4).stats)
        # the same messages, well formed, go through
        comm.exchange_arrays(
            **args, phase="fold", masks=np.ones(6, dtype=np.uint64), rounds=np.array([0, 1, 2])
        )
        assert comm.stats.total_messages == 2 and comm.clock.time.any()


DROP_HEAVY = "drop=0.45,retries=1,degrade=0.3x3,seed=5"


def torus_comm(**knobs) -> Communicator:
    grid = GridShape(2, 4)
    return Communicator(row_major_mapping(grid, Torus3D(2, 2, 2)), BLUEGENE_L, **knobs)


def random_round(rng, nranks: int = 8):
    """One round's messages in outbox order: (src, dst, sorted unique ids),
    each (src, dst) pair at most once, a self-send among them."""
    pairs = [(s, d) for s in range(nranks) for d in range(nranks) if rng.random() < 0.3]
    pairs.append((nranks - 1, nranks - 1))
    return [
        (s, d, np.unique(rng.integers(0, 400, size=rng.integers(1, 40))))
        for s, d in sorted(set(pairs))
    ]


def as_arrays(messages):
    src = np.array([s for s, _d, _p in messages], dtype=np.int64)
    dst = np.array([d for _s, d, _p in messages], dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum([p.size for _s, _d, p in messages])))
    flat = np.concatenate([p for _s, _d, p in messages])
    return src, dst, flat, bounds[:-1], bounds[1:]


#: the processor-rows of :func:`torus_comm`'s 2 x 4 mesh
ROWS = [[0, 1, 2, 3], [4, 5, 6, 7]]


def fold_input(rng):
    """``(csizes, cflat)`` of one fold over :data:`ROWS`: every member
    sends every row peer (itself included) a few vertex ids."""
    csizes = rng.integers(1, 6, size=32)
    return csizes, rng.integers(0, 400, size=int(csizes.sum()))


def stats_fields(stats: CommStats) -> dict:
    fields = {k: v for k, v in vars(stats).items() if k != "recv_by_rank"}
    fields["recv_by_rank"] = {k: v.tolist() for k, v in stats.recv_by_rank.items()}
    return fields


class TestOneRound:
    """Every knob is a step of the one round behind `exchange_arrays`."""

    @pytest.mark.parametrize("with_masks", [True, False])
    @pytest.mark.parametrize("observe", ["off", "messages"])
    @pytest.mark.parametrize("capacity", [None, 7])
    @pytest.mark.parametrize("faults", [None, "mild", DROP_HEAVY])
    @pytest.mark.parametrize("wire", ["raw", "delta-varint", "bitmap", "adaptive"])
    def test_round_reports_the_hand_cut_chunks(
        self, wire, faults, capacity, observe, with_masks
    ):
        """Whatever the knobs, the chunks a round reports are the ones cut
        here by hand less the lost ones, and two runs agree to the bit.
        A mask column (a batch's per-source words) leaves the chunks alone
        and adds exactly its 8 B per entry to the byte totals — no
        messages, no phase split — before the barrier closes the round."""
        def fresh():
            return torus_comm(
                wire=wire, faults=faults and FaultSpec.parse(faults),
                buffer_capacity=capacity, observe=observe,
            )

        comm, twin = fresh(), fresh()
        rng = np.random.default_rng(11)
        lost = chunk_count = mask_bytes = 0
        for level in range(4):
            comm.begin_level(level)
            twin.begin_level(level)
            src, dst, flat, starts, stops = as_arrays(random_round(rng))
            masks = np.arange(flat.size, dtype=np.uint64) if with_masks else None
            arrived = comm.exchange_arrays(
                src, dst, flat, starts, stops, "fold", masks=masks
            )
            again = twin.exchange_arrays(
                src, dst, flat, starts, stops, "fold", masks=masks
            )
            assert comm.clock.time.min() == comm.clock.time.max()
            mask_bytes += 8 * flat.size if with_masks else 0
            step = capacity or flat.size
            chunks = [
                (m, a, min(a + step, int(stops[m])))
                for m in range(src.size)
                for a in range(int(starts[m]), int(stops[m]), step)
            ]
            chunk_count += len(chunks)
            assert (arrived is None) == (again is None)
            if arrived is not None:
                reported = list(zip(*(col.tolist() for col in arrived)))
                assert reported == list(zip(*(col.tolist() for col in again)))
                assert len(reported) < len(chunks)
                kept = set(reported)
                lost += len(chunks) - len(reported)
                assert reported == [c for c in chunks if c in kept]
            assert comm.consume_level_failure() == (arrived is not None)
            twin.consume_level_failure()
            comm.stats.end_level(0)
            twin.stats.end_level(0)
        assert (lost > 0) == (faults == DROP_HEAVY)
        for bucket in ("time", "comm_time", "compute_time", "fault_time"):
            a, b = getattr(comm.clock, bucket), getattr(twin.clock, bucket)
            assert a.tobytes() == b.tobytes(), bucket
        assert comm.clock.elapsed > 0
        assert comm.stats.total_messages == chunk_count
        assert comm.stats.total_bytes - comm.stats.raw_bytes_by_phase["fold"] == mask_bytes
        assert stats_fields(comm.stats) == stats_fields(twin.stats)
        assert comm.fault_report() == twin.fault_report()
        if observe == "messages":
            events = comm.obs_trace.events
            assert events == twin.obs_trace.events
            assert len(events) == comm.stats.total_messages
            assert (
                sum(e.encoded_bytes for e in events) + mask_bytes
                == comm.stats.total_encoded_bytes
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capacity=st.sampled_from([None, 7]))
    def test_fates_do_not_depend_on_pair_ids(self, seed, capacity):
        """Pair ids follow the order a network first met its pairs in.  A
        network that met them shuffled numbers them otherwise, and every
        fate, link cost and clock — of plain rounds and of a union-ring
        fold's population rounds alike — stays bit for bit."""
        spec = FaultSpec.parse(DROP_HEAVY + ",down=1")
        rng = np.random.default_rng(seed)
        rounds = [random_round(rng) for _ in range(3)]
        folds = [fold_input(rng) for _ in range(3)]
        comm, twin = (torus_comm(faults=spec, buffer_capacity=capacity) for _ in "ab")
        pairs = np.indices((8, 8)).reshape(2, -1)[:, rng.permutation(64)]
        for pair in pairs.T:  # one at a time, so in shuffled order
            twin.network.pair_ids(pair[:1], pair[1:])
        for level, (messages, (csizes, cflat)) in enumerate(zip(rounds, folds)):
            for c in (comm, twin):
                c.begin_level(level)
            arrived = [c.exchange_arrays(*as_arrays(messages), "fold") for c in (comm, twin)]
            assert (arrived[0] is None) == (arrived[1] is None)
            if arrived[0] is not None:
                assert all(np.array_equal(a, b) for a, b in zip(*arrived))
            folded = [
                get_fold("union-ring").fold(c, ROWS, csizes, cflat) for c in (comm, twin)
            ]
            assert all(np.array_equal(a, b) for a, b in zip(*(f[:2] for f in folded)))
            for c in (comm, twin):
                c.stats.end_level(0)
        ids = [c.network.pair_ids(*pairs) for c in (comm, twin)]
        assert not np.array_equal(*ids)
        assert comm.fault_report() == twin.fault_report()
        assert comm.fault_report().injected > 0
        for bucket in ("time", "comm_time", "fault_time"):
            a, b = getattr(comm.clock, bucket), getattr(twin.clock, bucket)
            assert a.tobytes() == b.tobytes(), bucket

    def test_faulted_union_ring_fold_asks_no_pair_id(self, monkeypatch):
        """A union-ring fold's rounds are a prepared population.  Once it
        is prepared, faulted folds — on a fresh schedule too — key fates
        and link costs by the population's ids and never ask the network
        for a pair id."""
        comm = torus_comm(faults=FaultSpec.parse(DROP_HEAVY))
        rng = np.random.default_rng(4)

        def fold(c):
            c.begin_level(0)
            get_fold("union-ring").fold(c, ROWS, *fold_input(rng))
            c.stats.end_level(0)

        fold(comm)  # prepares the population
        calls = []
        pair_ids = Network.pair_ids
        monkeypatch.setattr(
            Network, "pair_ids", lambda net, *a: calls.append(a) or pair_ids(net, *a)
        )
        twin = Communicator(
            comm.mapping, comm.model, faults=FaultSpec.parse(DROP_HEAVY),
            network=comm.network,
        )
        for c in (comm, twin, twin, twin):
            fold(c)
        assert not calls
        assert twin.stats.total_drops > 0

    @pytest.mark.parametrize("capacity", [None, 7])
    @pytest.mark.parametrize("name", ["delta-varint", "adaptive"])
    def test_one_pricing_call_per_round(self, name, capacity, monkeypatch):
        """Whatever the chunk count, a round asks the codec, the fault
        schedule and the recorder once each — no Python per chunk."""
        calls = collections.Counter()

        def count(owner, method):
            original = getattr(owner, method)

            def wrapper(self, *args):
                calls[method] += 1
                return original(self, *args)

            monkeypatch.setattr(owner, method, wrapper)

        count(type(get_codec(name)), "price_many")
        for codec in WIRE_CODECS.values():
            count(codec, "encoded_nbytes_many")
        for method in ("plan_round", "link_multipliers", "retry_penalty"):
            count(FaultSchedule, method)
        count(KeyedDropStream, "plan_many")
        count(TraceRecorder, "record_round")
        comm = torus_comm(
            wire=name, buffer_capacity=capacity, observe="messages",
            faults=FaultSpec.parse(DROP_HEAVY),
        )
        rng = np.random.default_rng(3)
        rounds = 3
        for _ in range(rounds):
            comm.exchange_arrays(*as_arrays(random_round(rng)), "fold")
        assert len(comm.obs_trace.events) > (10 if capacity is None else 40) * rounds
        assert comm.stats.total_drops > 0
        # adaptive sizes a round once per inner format
        sizing = calls.pop("encoded_nbytes_many")
        assert sizing == (2 if name == "adaptive" else 1) * rounds
        assert calls == dict.fromkeys(
            ("price_many", "plan_round", "link_multipliers", "retry_penalty",
             "plan_many", "record_round"),
            rounds,
        )

    def test_round_has_no_loop_over_chunks(self):
        """The only loop left in the round's source is over recorders."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(Communicator._round)))
        loops = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
        ]
        assert [ast.unparse(loop.iter) for loop in loops] == ["self.recorders"]

    def test_rounds_walked_once_each(self):
        """A call's rounds are walked in one place, a P-vector step each:
        the replay's loops run over rounds and the round's charges only."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(Communicator._advance_rounds)))
        loops = [
            ast.unparse(node.iter) for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
        ]
        assert loops == ["range(bounds.size - 1)", "charges"]

    def test_recorder_registers_without_patching(self):
        comm = torus_comm()
        before = set(vars(comm))
        recorder = TraceRecorder(comm).install()
        assert recorder.install() is recorder  # idempotent
        assert set(vars(comm)) == before and "exchange" not in vars(comm)
        rng = np.random.default_rng(5)
        messages = random_round(rng)
        comm.exchange_arrays(*as_arrays(messages), "expand")
        assert [(e.src, e.dst, e.num_vertices, e.phase) for e in recorder.events] == [
            (s, d, p.size, "expand") for s, d, p in messages
        ]
        recorder.uninstall()
        recorder.uninstall()
        comm.exchange_arrays(*as_arrays(messages), "expand")
        assert len(recorder.events) == len(messages)

    def test_bad_capacity_rejected(self):
        comm = make_comm(2, buffer_capacity=0)
        with pytest.raises(BufferOverflowError):
            comm.exchange_arrays(*as_arrays([(0, 1, np.arange(3))]), "fold")


class TestCommStats:
    def test_level_lifecycle(self):
        stats = CommStats(2)
        stats.begin_level(0)
        stats.record_message_bulk(1, 10, 80, 80, phase="fold")
        stats.record_delivery_bulk(np.array([1]), np.array([10]), "fold")
        stats.record_duplicates(3)
        done = stats.end_level(frontier_size=5)
        assert done.fold_received == 10
        assert done.processed == 10
        assert done.duplicates_eliminated == 3
        assert done.frontier_size == 5

    def test_double_begin_rejected(self):
        stats = CommStats(2)
        stats.begin_level(0)
        with pytest.raises(RuntimeError):
            stats.begin_level(1)

    def test_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            CommStats(2).end_level(0)

    def test_volume_per_level_phases(self):
        stats = CommStats(2)
        for lvl, (e, f) in enumerate([(5, 10), (2, 20)]):
            stats.begin_level(lvl)
            stats.record_delivery_bulk(np.array([0]), np.array([e]), "expand")
            stats.record_delivery_bulk(np.array([0]), np.array([f]), "fold")
            stats.end_level(0)
        assert stats.volume_per_level("expand").tolist() == [5, 2]
        assert stats.volume_per_level("fold").tolist() == [10, 20]
        assert stats.volume_per_level().tolist() == [15, 22]

    def test_mean_message_length(self):
        stats = CommStats(4)
        stats.begin_level(0)
        stats.record_delivery_bulk(np.array([0]), np.array([100]), "fold")
        stats.end_level(0)
        assert stats.mean_message_length_per_level("fold", 4) == 25.0
        assert stats.mean_message_length_per_level("fold", 0) == 0.0

    @pytest.mark.parametrize(
        "dsts, counts, name",
        [
            ([0, 1, 2, 3], [5], "counts"),
            ([0], [5, 5, 5, 5], "counts"),
            ([[0, 1]], [5, 5], "dsts"),
            ([0, -1], [5, 5], "dsts"),
            ([0, 4], [5, 5], "dsts"),
        ],
        ids=["one-count-broadcast", "one-rank", "2-D", "rank-minus-one", "rank-P"],
    )
    def test_delivery_arguments_checked(self, dsts, counts, name):
        """A one-element column would broadcast over every destination
        (``recv_by_rank`` booking 20 where ``fold_received`` books 5) and
        rank -1 would land on the last rank: both are refused, naming the
        argument, before anything is booked."""
        stats = CommStats(4)
        stats.begin_level(0)
        with pytest.raises(CommunicationError, match=rf"^{name} "):
            stats.record_delivery_bulk(np.array(dsts), np.array(counts), "fold")
        assert "fold" not in stats.recv_by_rank
        assert stats.end_level(0).fold_received == 0

    def test_redundancy_ratio(self):
        stats = CommStats(2)
        stats.begin_level(0)
        stats.record_message_bulk(1, 60, 480, 480, phase="fold")
        stats.record_duplicates(40)
        stats.end_level(0)
        assert stats.redundancy_ratio == pytest.approx(0.4)

    def test_redundancy_ratio_empty(self):
        assert CommStats(2).redundancy_ratio == 0.0

    def test_messages_outside_levels_still_counted_globally(self):
        stats = CommStats(2)
        stats.record_message_bulk(1, 5, 40, 40, phase="fold")
        assert stats.total_messages == 1
        assert stats.levels == []
