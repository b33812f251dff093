"""Columnar trace engine: format v2 round-trips, v1 rejection, and
equivalence between the columnar representation and the object API."""

import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.trace import (
    OPS_BY_CODE,
    AccessTrace,
    OpType,
    StateAccess,
    concat_traces,
    interleave_traces,
    shuffled_trace,
)

ACCESSES = st.lists(
    st.builds(
        StateAccess,
        op=st.sampled_from(list(OpType)),
        key=st.binary(min_size=0, max_size=33),  # includes empty + odd sizes
        value_size=st.integers(min_value=0, max_value=1 << 20),
        timestamp=st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    ),
    max_size=120,
)

SETTINGS = settings(max_examples=60, deadline=None)


def make_trace(n=64, distinct=7):
    trace = AccessTrace()
    ops = list(OpType)
    for i in range(n):
        trace.record(ops[i % 4], f"key-{i % distinct}".encode(), i % 50, i * 3)
    return trace


class TestV2RoundTrip:
    @given(accesses=ACCESSES)
    @SETTINGS
    def test_v2_roundtrip_preserves_accesses(self, accesses, tmp_path_factory):
        trace = AccessTrace(list(accesses))
        path = str(tmp_path_factory.mktemp("traces") / "t.trace")
        trace.save(path)
        loaded = AccessTrace.load(path)
        assert loaded.accesses == trace.accesses
        assert loaded.op_counts() == trace.op_counts()
        assert loaded.distinct_keys() == trace.distinct_keys()

    def test_v1_file_rejected(self, tmp_path):
        """The record-oriented v1 format is no longer read: a v1 header
        fails loudly instead of decoding as something else."""
        path = tmp_path / "old.trace"
        path.write_bytes(b"GDGT" + struct.pack("<HQ", 1, 0))
        with pytest.raises(ValueError, match="unsupported trace version: 1"):
            AccessTrace.load(str(path))

    def test_default_format_is_v2(self, tmp_path):
        path = str(tmp_path / "t.trace")
        make_trace().save(path)
        with open(path, "rb") as handle:
            header = handle.read(6)
        assert header[:4] == b"GDGT"
        assert struct.unpack_from("<H", header, 4)[0] == 2

    def test_empty_and_odd_size_keys(self, tmp_path):
        trace = AccessTrace()
        for key in (b"", b"x", b"abc", b"\x00" * 13, b"k" * 31):
            trace.record(OpType.PUT, key, 5, 1)
            trace.record(OpType.GET, key, 0, 2)
        path = str(tmp_path / "odd.trace")
        trace.save(path)
        loaded = AccessTrace.load(path)
        assert loaded.key_sequence() == trace.key_sequence()
        assert loaded.accesses == trace.accesses

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.trace"
        path.write_bytes(b"GDGT" + struct.pack("<HQ", 99, 0))
        with pytest.raises(ValueError, match="unsupported trace version"):
            AccessTrace.load(str(path))

    def test_truncated_v2_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.trace")
        make_trace(100).save(path)
        with open(path, "rb") as handle:
            data = handle.read()
        clipped = tmp_path / "clipped.trace"
        clipped.write_bytes(data[: len(data) - 16])
        with pytest.raises(ValueError, match="truncated"):
            AccessTrace.load(str(clipped))


class TestColumnarEquivalence:
    def test_iter_raw_matches_object_api(self):
        trace = make_trace(100)
        raw = list(trace.iter_raw())
        objs = trace.accesses
        assert len(raw) == len(objs)
        for (code, key, size), access in zip(raw, objs):
            assert OPS_BY_CODE[code] is access.op
            assert key == access.key
            assert size == access.value_size

    def test_columns_align_with_accesses(self):
        trace = make_trace(60)
        keys = trace.unique_keys()
        for i, access in enumerate(trace):
            assert trace.op_codes[i] == {"get": 0, "put": 1, "merge": 2, "delete": 3}[
                access.op.value
            ]
            assert keys[trace.key_ids[i]] == access.key
            assert trace.value_sizes[i] == access.value_size
            assert trace.timestamps[i] == access.timestamp

    def test_interned_keys_are_shared_objects(self):
        trace = make_trace(40, distinct=3)
        seq = trace.key_sequence()
        firsts = {}
        for key in seq:
            if key not in firsts:
                firsts[key] = key
            else:
                assert firsts[key] is key  # same interned bytes object

    def test_select_gathers_rows_in_order(self):
        trace = make_trace(30)
        picked = trace.select([5, 1, 20])
        assert picked.accesses == [trace[5], trace[1], trace[20]]

    def test_slice_matches_materialized_slice(self):
        trace = make_trace(30)
        assert trace[4:17].accesses == trace.accesses[4:17]
        assert trace[::3].accesses == trace.accesses[::3]

    def test_extend_remaps_key_ids_across_pools(self):
        a = make_trace(20, distinct=4)
        b = AccessTrace()
        b.record(OpType.PUT, b"key-1", 9, 9)  # shared with a's pool
        b.record(OpType.PUT, b"only-in-b", 9, 9)
        expected = a.accesses + b.accesses
        a.extend(b)
        assert a.accesses == expected
        assert a.distinct_keys() == 5

    def test_interleave_remaps_key_ids(self):
        a = AccessTrace([StateAccess(OpType.GET, b"shared"),
                         StateAccess(OpType.GET, b"a-only")])
        b = AccessTrace([StateAccess(OpType.PUT, b"shared", 3),
                         StateAccess(OpType.PUT, b"b-only", 3)])
        merged = interleave_traces([a, b])
        assert [x.key for x in merged] == [b"shared", b"shared", b"a-only", b"b-only"]
        assert merged.distinct_keys() == 3

    def test_shuffle_is_gather_of_same_permutation(self):
        trace = make_trace(200)
        shuffled = shuffled_trace(trace, random.Random(7))
        indices = list(range(200))
        random.Random(7).shuffle(indices)
        assert shuffled.accesses == [trace[i] for i in indices]

    def test_concat_equivalence(self):
        parts = [make_trace(11), make_trace(5), AccessTrace()]
        merged = concat_traces(parts)
        assert merged.accesses == sum((p.accesses for p in parts), [])


class TestMemoryFootprint:
    def test_columnar_bytes_per_op_is_small(self):
        trace = make_trace(10_000, distinct=100)
        # 17 bytes of columns per op + the (tiny, amortized) key pool;
        # the seed list-of-dataclass layout cost ~200 bytes per op.
        assert trace.nbytes / len(trace) < 25

    def test_nbytes_grows_with_ops_not_objects(self):
        small, large = make_trace(1000), make_trace(4000)
        assert large.nbytes < 4.5 * small.nbytes


class TestSharedMemoryImage:
    """write_image / attach: the v2 file format doubling as the
    zero-copy shared-memory wire format for multi-process replay."""

    def test_round_trip_preserves_accesses(self):
        trace = make_trace(500)
        buffer = bytearray(trace.image_nbytes())
        written = trace.write_image(buffer)
        assert written == trace.image_nbytes()
        attached = AccessTrace.attach(buffer)
        assert list(attached) == list(trace)

    @SETTINGS
    @given(ACCESSES)
    def test_round_trip_any_trace(self, accesses):
        trace = AccessTrace()
        for access in accesses:
            trace.record(access.op, access.key, access.value_size,
                         access.timestamp)
        buffer = bytearray(trace.image_nbytes())
        trace.write_image(buffer)
        attached = AccessTrace.attach(buffer)
        assert list(attached) == list(trace)
        assert attached.op_counts() == trace.op_counts()

    def test_image_matches_file_format(self, tmp_path):
        """A saved v2 file IS a valid image and vice versa."""
        trace = make_trace(200)
        path = tmp_path / "trace.bin"
        trace.save(str(path))
        attached = AccessTrace.attach(path.read_bytes())
        assert list(attached) == list(trace)

    def test_attach_rejects_bad_magic(self):
        with pytest.raises(ValueError, match="trace image"):
            AccessTrace.attach(b"\x00" * 64)

    def test_attach_rejects_v1(self):
        trace = make_trace(10)
        buffer = bytearray(trace.image_nbytes())
        trace.write_image(buffer)
        struct.pack_into("<H", buffer, 4, 1)  # forge the version field
        with pytest.raises(ValueError, match="version"):
            AccessTrace.attach(bytes(buffer))

    def test_select_detaches_from_buffer(self):
        """select() on an attached trace must copy: workers gather
        their shard then drop every view before closing the segment."""
        trace = make_trace(300)
        buffer = bytearray(trace.image_nbytes())
        trace.write_image(buffer)
        attached = AccessTrace.attach(buffer)
        shard = attached.select(range(0, len(trace), 2))
        del attached
        buffer[:] = b"\x00" * len(buffer)  # clobber the "segment"
        assert list(shard) == list(trace)[::2]
