"""Tests for the repro.wire frontier-compression codecs.

Three layers: codec round-trip properties (hypothesis), engine-level
equivalence (every codec must reproduce the serial BFS level array and
the raw codec must be byte- and time-identical to the pre-codec runtime),
and the γ-model predictions in ``repro.analysis.bounds``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    level_traffic_bytes,
    predicted_compression_ratio,
    predicted_level_traffic_bytes,
    predicted_message_bytes,
)
from repro.api import distributed_bfs
from repro.backends.spmd import spmd_bfs
from repro.bfs.options import BfsOptions
from repro.bfs.serial import serial_bfs
from repro.errors import CodecError, ConfigurationError
from repro.machine.bluegene import BLUEGENE_L
from repro.types import GridShape, SystemSpec, VERTEX_DTYPE
from repro.wire import (
    WIRE_CODECS,
    AdaptiveCodec,
    BitmapCodec,
    DeltaVarintCodec,
    RawCodec,
    WireCodec,
    get_codec,
    resolve_wire,
    varint_nbytes,
    zigzag,
)

ALL_CODECS = ["raw", "delta-varint", "bitmap", "adaptive"]

FAST = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: sorted, duplicate-free vertex ids from a bounded universe — what every
#: collective wire payload looks like in practice (ids are < n, so bitmap
#: spans stay proportional to the owned block) and what all four codecs
#: must accept
sorted_unique_arrays = st.lists(
    st.integers(0, 1 << 16), max_size=300, unique=True
).map(lambda xs: np.sort(np.array(xs, dtype=VERTEX_DTYPE)))

#: like the above but with ids up to 2^40 — raw/varint/adaptive handle
#: these in O(m); the bitmap's dense bitset is not meant for such spans
sorted_unique_sparse_arrays = st.lists(
    st.integers(0, 1 << 40), max_size=300, unique=True
).map(lambda xs: np.sort(np.array(xs, dtype=VERTEX_DTYPE)))

#: arbitrary int64 content, including unsorted, duplicated, and negative
#: values with overflowing deltas — raw and delta-varint must survive these
arbitrary_arrays = st.lists(
    st.integers(-(1 << 63), (1 << 63) - 1), max_size=200
).map(lambda xs: np.array(xs, dtype=VERTEX_DTYPE))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @FAST
    @given(payload=sorted_unique_arrays)
    def test_sorted_unique_round_trips(self, name, payload):
        codec = get_codec(name)
        blob = codec.encode(payload)
        assert isinstance(blob, bytes)
        out = codec.decode(blob)
        assert out.dtype == VERTEX_DTYPE
        np.testing.assert_array_equal(out, payload)

    @pytest.mark.parametrize("name", ["raw", "delta-varint"])
    @FAST
    @given(payload=arbitrary_arrays)
    def test_arbitrary_round_trips(self, name, payload):
        codec = get_codec(name)
        np.testing.assert_array_equal(codec.decode(codec.encode(payload)), payload)

    @pytest.mark.parametrize("name", ["raw", "delta-varint", "adaptive"])
    @FAST
    @given(payload=sorted_unique_sparse_arrays)
    def test_sparse_ids_round_trip(self, name, payload):
        # adaptive must reject the bitmap here: huge spans over few ids
        # would cost span/8 bytes on the wire (and in memory)
        codec = get_codec(name)
        np.testing.assert_array_equal(codec.decode(codec.encode(payload)), payload)

    @pytest.mark.parametrize("name", ALL_CODECS)
    @FAST
    @given(payload=sorted_unique_arrays)
    def test_nbytes_matches_encoding(self, name, payload):
        codec = get_codec(name)
        assert codec.encoded_nbytes(payload) == len(codec.encode(payload))

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_fixed_cases(self, name):
        codec = get_codec(name)
        for values in ([], [0], [7], [2**40], list(range(100)), [0, 1, 5, 1000]):
            payload = np.array(values, dtype=VERTEX_DTYPE)
            np.testing.assert_array_equal(
                codec.decode(codec.encode(payload)), payload
            )

    def test_adaptive_round_trips_unsorted(self):
        # bruck/two-phase collectives concatenate buckets, so adaptive
        # must fall back to varint and still round-trip
        codec = AdaptiveCodec()
        payload = np.array([9, 3, 3, -4, 10**12], dtype=VERTEX_DTYPE)
        np.testing.assert_array_equal(codec.decode(codec.encode(payload)), payload)

    def test_bitmap_rejects_invalid(self):
        codec = BitmapCodec()
        for bad in ([3, 1], [1, 1], [-1, 2]):
            with pytest.raises(CodecError):
                codec.encode(np.array(bad, dtype=VERTEX_DTYPE))


class TestCompression:
    def test_dense_payload_ordering(self):
        rng = np.random.default_rng(0)
        payload = np.sort(
            rng.choice(100_000, size=40_000, replace=False).astype(VERTEX_DTYPE)
        )
        raw = RawCodec().encoded_nbytes(payload)
        varint = DeltaVarintCodec().encoded_nbytes(payload)
        bitmap = BitmapCodec().encoded_nbytes(payload)
        adaptive = AdaptiveCodec().encoded_nbytes(payload)
        assert bitmap < varint < raw
        assert adaptive <= min(varint, bitmap) + 1  # one tag byte

    def test_sparse_payload_prefers_varint(self):
        payload = np.arange(0, 10**7, 10**4, dtype=VERTEX_DTYPE)
        assert (
            DeltaVarintCodec().encoded_nbytes(payload)
            < BitmapCodec().encoded_nbytes(payload)
        )

    def test_helpers(self):
        assert zigzag(np.array([0, -1, 1], dtype=VERTEX_DTYPE)).tolist() == [0, 1, 2]
        assert varint_nbytes(np.array([0, 127, 128], dtype=np.uint64)).tolist() == [
            1, 1, 2,
        ]

    def test_codec_time_costs(self):
        payload = np.arange(1000, dtype=VERTEX_DTYPE)
        whole = np.array([0]), np.array([payload.size])
        _, encode_s, decode_s = RawCodec().price_many(payload, *whole)
        assert encode_s[0] == 0.0 == decode_s[0]
        _, encode_s, decode_s = DeltaVarintCodec().price_many(payload, *whole)
        assert encode_s[0] > 0.0
        assert decode_s[0] > 0.0


#: how a drawn id list becomes a message: the sorted set every collective
#: ships, its arrival order (unsorted, maybe negative, maybe repeated — what
#: forwarding collectives concatenate), or a set with one id sent twice
_MESSAGE_SHAPES = (
    lambda ids: sorted(set(ids)),
    lambda ids: ids,
    lambda ids: sorted(ids + ids[:1]),
)

#: a round: messages back to back in one flat buffer, each cut into chunks
#: by its buffer capacity, and every n-th chunk left out (0: none) the way
#: a round leaves out its self-sends
rounds = st.tuples(
    st.lists(
        st.tuples(
            st.lists(st.integers(-50, 5000), min_size=1, max_size=60),
            st.sampled_from(_MESSAGE_SHAPES),
            st.integers(1, 70),
        ),
        min_size=1, max_size=6,
    ),
    st.sampled_from((0, 2, 3)),
)


def cut_round(messages, skip):
    """``(flat, starts, stops)`` of a drawn round's chunks."""
    flat, bounds = [], []
    for ids, shape, capacity in messages:
        payload = shape(ids)
        bounds += [
            (len(flat) + a, len(flat) + min(a + capacity, len(payload)))
            for a in range(0, len(payload), capacity)
        ]
        flat += payload
    kept = [b for k, b in enumerate(bounds) if not skip or k % skip] or bounds
    starts, stops = np.array(kept, dtype=np.int64).T
    return np.array(flat, dtype=VERTEX_DTYPE), starts, stops


class TestPriceMany:
    """A round is priced in one call: row k is what pricing chunk k alone
    would say, and what really encoding it would produce."""

    @pytest.mark.parametrize("name", ALL_CODECS)
    @FAST
    @given(drawn=rounds)
    def test_rows_match_real_encodings(self, name, drawn):
        codec = get_codec(name)
        flat, starts, stops = cut_round(*drawn)
        nbytes, encode_s, decode_s = codec.price_many(flat, starts, stops)
        assert nbytes.dtype == np.int64
        assert nbytes.tolist() == codec.encoded_nbytes_many(flat, starts, stops).tolist()
        for k, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
            payload = flat[a:b]
            try:
                expected = len(codec.encode(payload))
            except CodecError:
                # only the bitmap restricts its domain; it prices what a
                # real sender would ship after a dedup: the value range
                assert name == "bitmap"
                span = int(payload.max()) - int(payload.min()) + 1
                header = varint_nbytes(np.array([max(int(payload.min()), 0), span]))
                expected = int(header.sum()) + (span + 7) // 8
            assert nbytes[k] == expected == codec.encoded_nbytes(payload)
        if name != "adaptive":
            sizes = stops - starts
            assert encode_s.tolist() == [codec.encode_cost_per_vertex * int(n) for n in sizes]
            assert decode_s.tolist() == [codec.decode_cost_per_vertex * int(n) for n in sizes]

    @FAST
    @given(drawn=rounds)
    def test_adaptive_takes_the_bitmap_iff_eligible_and_smaller(self, drawn):
        flat, starts, stops = cut_round(*drawn)
        varint, bitmap = DeltaVarintCodec(), BitmapCodec()
        nbytes, encode_s, decode_s = AdaptiveCodec().price_many(flat, starts, stops)
        for k, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
            payload = flat[a:b]
            eligible = payload[0] >= 0 and bool(np.all(payload[1:] > payload[:-1]))
            sizes = varint.encoded_nbytes(payload), bitmap.encoded_nbytes(payload)
            winner = bitmap if eligible and sizes[1] < sizes[0] else varint
            assert nbytes[k] == 1 + winner.encoded_nbytes(payload)
            assert AdaptiveCodec().encode(payload)[0] == (winner is bitmap)
            assert encode_s[k] == winner.encode_cost_per_vertex * int(payload.size)
            assert decode_s[k] == winner.decode_cost_per_vertex * int(payload.size)

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_closed_forms_agree_with_the_encoding_default(self, name):
        """The base class sizes a range by really encoding it; every
        built-in closed form must say the same."""
        codec = get_codec(name)
        flat = np.array([3, 4, 9, 200, 0, 1, 2, 3, 70000, 70001, 5], dtype=VERTEX_DTYPE)
        starts, stops = np.array([0, 4, 8, 10, 1]), np.array([4, 8, 10, 11, 3])
        assert (
            codec.encoded_nbytes_many(flat, starts, stops).tolist()
            == WireCodec.encoded_nbytes_many(codec, flat, starts, stops).tolist()
        )

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_no_ranges(self, name):
        none = np.empty(0, dtype=np.int64)
        for column in get_codec(name).price_many(none, none, none):
            assert column.size == 0


class TestResolution:
    def test_registry_has_builtins(self):
        get_codec("raw")  # force registration
        assert set(ALL_CODECS) <= set(WIRE_CODECS)

    def test_resolve_forms(self):
        assert resolve_wire(None).name == "raw"
        assert resolve_wire("bitmap").name == "bitmap"
        codec = AdaptiveCodec()
        assert resolve_wire(codec) is codec

    def test_unknown_name_rejected(self):
        with pytest.raises(CodecError):
            get_codec("gzip")

    def test_system_spec_validates_wire(self):
        assert SystemSpec(wire="adaptive").wire == "adaptive"
        with pytest.raises(ConfigurationError):
            SystemSpec(wire="gzip")
        # duck-typed codec instances pass validation
        assert SystemSpec(wire=RawCodec()).wire.name == "raw"


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", ALL_CODECS)
    @pytest.mark.parametrize("layout,grid", [("2d", (2, 2)), ("1d", (4, 1))])
    def test_levels_match_serial(self, small_graph, name, layout, grid):
        result = distributed_bfs(
            small_graph, grid, 0, system=SystemSpec(layout=layout, wire=name)
        )
        np.testing.assert_array_equal(result.levels, serial_bfs(small_graph, 0))

    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_frontier_sizes_identical(self, small_graph, name):
        base = distributed_bfs(small_graph, (2, 2), 0)
        coded = distributed_bfs(small_graph, (2, 2), 0, wire=name)
        assert (
            [ls.frontier_size for ls in base.stats.levels]
            == [ls.frontier_size for ls in coded.stats.levels]
        )

    def test_raw_is_byte_identical(self, small_graph):
        base = distributed_bfs(small_graph, (2, 2), 0)
        raw = distributed_bfs(small_graph, (2, 2), 0, wire="raw")
        assert raw.elapsed == base.elapsed
        assert raw.comm_time == base.comm_time
        assert raw.compute_time == base.compute_time
        assert raw.stats.total_bytes == base.stats.total_bytes
        assert raw.stats.total_encoded_bytes == raw.stats.total_bytes

    def test_adaptive_compresses(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, wire="adaptive")
        assert result.stats.total_encoded_bytes < result.stats.total_bytes
        assert result.stats.compression_ratio > 1.0

    def test_codec_charges_compute_time(self, small_graph):
        base = distributed_bfs(small_graph, (2, 2), 0)
        coded = distributed_bfs(small_graph, (2, 2), 0, wire="delta-varint")
        assert coded.compute_time > base.compute_time

    @pytest.mark.parametrize("expand,fold", [("two-phase", "bruck"), ("ring", "ring")])
    def test_unsorted_collectives_still_exact(self, small_graph, expand, fold):
        opts = BfsOptions(expand_collective=expand, fold_collective=fold)
        result = distributed_bfs(small_graph, (2, 2), 0, opts=opts, wire="adaptive")
        np.testing.assert_array_equal(result.levels, serial_bfs(small_graph, 0))

    @pytest.mark.parametrize("preset", [
        "bluegene-2d-varint", "bluegene-2d-bitmap", "bluegene-2d-adaptive",
    ])
    def test_presets(self, small_graph, preset):
        result = distributed_bfs(small_graph, (2, 2), 0, system=preset)
        np.testing.assert_array_equal(result.levels, serial_bfs(small_graph, 0))

    def test_per_level_ratio_exposed(self, small_graph):
        result = distributed_bfs(small_graph, (2, 2), 0, wire="adaptive")
        raw = result.stats.bytes_per_level(kind="raw")
        enc = result.stats.bytes_per_level(kind="encoded")
        assert raw.shape == enc.shape
        assert (enc <= raw).all()


class TestSpmdRoundTrip:
    @pytest.mark.parametrize("name", ALL_CODECS)
    def test_matches_serial(self, small_graph, name):
        levels = spmd_bfs(small_graph, (2, 2), 0, wire=name, timeout=60)
        np.testing.assert_array_equal(levels, serial_bfs(small_graph, 0))

    def test_ring_collectives_encoded(self, small_graph):
        opts = BfsOptions(expand_collective="ring", fold_collective="union-ring")
        levels = spmd_bfs(small_graph, (2, 3), 7, opts=opts, wire="adaptive", timeout=60)
        np.testing.assert_array_equal(levels, serial_bfs(small_graph, 7))


class TestGammaPredictions:
    def test_raw_matches_uncompressed_traffic(self):
        grid = GridShape(4, 4)
        exact = level_traffic_bytes(20_000, 10.0, grid, BLUEGENE_L)
        predicted = predicted_level_traffic_bytes(
            20_000, 10.0, grid, BLUEGENE_L, "raw"
        )
        assert predicted == pytest.approx(exact)

    @pytest.mark.parametrize("name", ["delta-varint", "bitmap", "adaptive"])
    def test_compressed_below_raw(self, name):
        grid = GridShape(4, 4)
        raw = predicted_level_traffic_bytes(50_000, 10.0, grid, BLUEGENE_L, "raw")
        coded = predicted_level_traffic_bytes(50_000, 10.0, grid, BLUEGENE_L, name)
        assert 0.0 < coded < raw
        assert predicted_compression_ratio(50_000, 10.0, grid, BLUEGENE_L, name) > 1.0

    def test_adaptive_tracks_minimum(self):
        for m, span in [(10, 100_000), (50_000, 100_000), (1, 8)]:
            varint = predicted_message_bytes("delta-varint", m, span)
            bitmap = predicted_message_bytes("bitmap", m, span)
            adaptive = predicted_message_bytes("adaptive", m, span)
            assert adaptive == pytest.approx(1.0 + min(varint, bitmap))

    def test_bitmap_constant_in_density(self):
        sparse = predicted_message_bytes("bitmap", 10, 80_000)
        dense = predicted_message_bytes("bitmap", 70_000, 80_000)
        assert sparse == dense

    def test_empty_message_costs_nothing(self):
        for name in ALL_CODECS:
            assert predicted_message_bytes(name, 0, 1000) == 0.0

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            predicted_message_bytes("gzip", 10, 100)
