"""State-access trace model shared by the whole suite.

The paper represents a state access as a tuple ``a = (p, k, v, t)`` --
an operation ``p`` on key ``k`` with value ``v`` at time ``t`` (section
2.3).  Both the instrumented mini stream processor (the "real" traces of
section 3) and the Gadget workload generator (section 5) emit
:class:`StateAccess` records, so every analysis and replay tool operates
on a single format.

Traces store the value *size* rather than value bytes, mirroring
Gadget's design decision to never materialize operator state: values
are synthesized at replay time from the recorded size.

Storage layout
--------------

:class:`AccessTrace` is columnar (struct-of-arrays): op codes live in
an ``array('B')``, value sizes in an ``array('I')``, timestamps in an
``array('q')``, and keys are interned into a single contiguous
``bytearray`` pool addressed by an offset index, with each access
holding a 4-byte key id.  That is ~17 bytes per operation instead of a
~200-byte heap-allocated object, and it lets ``save``/``load``,
``op_counts``, ``filter``, shuffling and interleaving run over flat
buffers.  :class:`StateAccess` objects are materialized lazily, only
when callers use the object API (``trace[i]``, iteration,
``trace.accesses``); the replayer consumes :meth:`AccessTrace.iter_raw`
and never materializes them at all.
"""

from __future__ import annotations

import struct
import sys
from array import array
from enum import Enum
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)


class OpType(str, Enum):
    """The four operations of the RocksDB-flavoured state API."""

    GET = "get"
    PUT = "put"
    MERGE = "merge"
    DELETE = "delete"


_OP_CODES = {OpType.GET: 0, OpType.PUT: 1, OpType.MERGE: 2, OpType.DELETE: 3}
_CODE_OPS = {code: op for op, code in _OP_CODES.items()}
#: opcode -> OpType, indexable by the raw ``iter_raw`` codes
OPS_BY_CODE = (OpType.GET, OpType.PUT, OpType.MERGE, OpType.DELETE)
_HEADER = struct.Struct("<HQ")  # version, count
_V2_HEADER = struct.Struct("<QQ")  # unique keys, key pool length

_LITTLE_ENDIAN = sys.byteorder == "little"


class StateAccess(NamedTuple):
    """One request sent to the state store.

    Immutable and value-compared, like the frozen dataclass it
    replaces; a ``NamedTuple`` because the columnar trace materializes
    these lazily and tuple construction is several times cheaper.
    """

    op: OpType
    key: bytes
    value_size: int = 0
    timestamp: int = 0


def _le(arr: array) -> bytes:
    """Array contents as little-endian bytes (trace file byte order)."""
    if _LITTLE_ENDIAN or arr.itemsize == 1:
        return arr.tobytes()
    swapped = array(arr.typecode, arr)
    swapped.byteswap()
    return swapped.tobytes()


def _from_le(typecode: str, data) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if not _LITTLE_ENDIAN and arr.itemsize > 1:
        arr.byteswap()
    return arr


class AccessTrace:
    """An ordered state access stream plus bookkeeping helpers."""

    __slots__ = (
        "_ops",
        "_vsizes",
        "_tstamps",
        "_kids",
        "_kblob",
        "_koffs",
        "_kindex",
        "_klist",
    )

    def __init__(self, accesses: Optional[Iterable[StateAccess]] = None) -> None:
        self._ops = array("B")  # op codes, one byte per access
        self._vsizes = array("I")  # value sizes
        self._tstamps = array("q")  # event timestamps
        self._kids = array("I")  # per-access index into the key pool
        self._kblob = bytearray()  # unique keys, packed back to back
        self._koffs = array("Q", [0])  # key i spans _kblob[offs[i]:offs[i+1]]
        self._kindex: Optional[Dict[bytes, int]] = {}  # key -> key id
        self._klist: Optional[List[bytes]] = []  # key id -> key
        if accesses is not None:
            for access in accesses:
                self.record(access.op, access.key, access.value_size, access.timestamp)

    # -- key pool ----------------------------------------------------------

    def unique_keys(self) -> List[bytes]:
        """Interned key pool as bytes objects (key id -> key).

        May contain keys no longer referenced by any access after
        ``filter``/slicing; ``distinct_keys`` counts referenced keys.
        """
        klist = self._klist
        if klist is None:
            blob = bytes(self._kblob)
            offs = self._koffs
            klist = [blob[offs[i] : offs[i + 1]] for i in range(len(offs) - 1)]
            self._klist = klist
        return klist

    def _key_index(self) -> Dict[bytes, int]:
        index = self._kindex
        if index is None:
            index = {key: kid for kid, key in enumerate(self.unique_keys())}
            self._kindex = index
        return index

    def _intern(self, key: bytes) -> int:
        index = self._kindex
        if index is None:
            index = self._key_index()
        kid = index.get(key)
        if kid is None:
            key = bytes(key)
            kid = len(index)
            index[key] = kid
            self._kblob += key
            self._koffs.append(len(self._kblob))
            if self._klist is not None:
                self._klist.append(key)
        return kid

    def _appenders(self) -> tuple:
        """The bound ``append`` of the opcode, key-id, value-size and
        timestamp columns, then the key interner (key -> key id).

        The state-machine emission path writes through these directly;
        a row written through them is the row :meth:`record` writes.
        """
        return (
            self._ops.append,
            self._kids.append,
            self._vsizes.append,
            self._tstamps.append,
            self._intern,
        )

    # -- raw column views --------------------------------------------------

    @property
    def op_codes(self) -> array:
        """Opcode column (0=get 1=put 2=merge 3=delete); do not mutate."""
        return self._ops

    @property
    def key_ids(self) -> array:
        """Key-id column indexing :meth:`unique_keys`; do not mutate."""
        return self._kids

    @property
    def value_sizes(self) -> array:
        """Value-size column; do not mutate."""
        return self._vsizes

    @property
    def timestamps(self) -> array:
        """Timestamp column; do not mutate."""
        return self._tstamps

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns and the key pool."""
        return (
            len(self._ops) * self._ops.itemsize
            + len(self._vsizes) * self._vsizes.itemsize
            + len(self._tstamps) * self._tstamps.itemsize
            + len(self._kids) * self._kids.itemsize
            + len(self._kblob)
            + len(self._koffs) * self._koffs.itemsize
        )

    # -- recording ---------------------------------------------------------

    def record(
        self, op: OpType, key: bytes, value_size: int = 0, timestamp: int = 0
    ) -> None:
        self._ops.append(_OP_CODES[op])
        self._kids.append(self._intern(key))
        self._vsizes.append(value_size)
        self._tstamps.append(timestamp)

    def extend(self, other: "AccessTrace") -> None:
        remap = array("I", [self._intern(key) for key in other.unique_keys()])
        self._ops.extend(other._ops)
        self._vsizes.extend(other._vsizes)
        self._tstamps.extend(other._tstamps)
        kids = self._kids
        for kid in other._kids:
            kids.append(remap[kid])

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._ops)

    def _materialize(self, index: int) -> StateAccess:
        return StateAccess(
            OPS_BY_CODE[self._ops[index]],
            self.unique_keys()[self._kids[index]],
            self._vsizes[index],
            self._tstamps[index],
        )

    def __iter__(self) -> Iterator[StateAccess]:
        keys = self.unique_keys()
        ops_by_code = OPS_BY_CODE
        for code, kid, vsize, tstamp in zip(
            self._ops, self._kids, self._vsizes, self._tstamps
        ):
            yield StateAccess(ops_by_code[code], keys[kid], vsize, tstamp)

    def iter_raw(self) -> Iterator[tuple]:
        """Zero-materialization iteration: ``(opcode, key, value_size)``.

        The replay fast path: no :class:`StateAccess` objects, no enum
        comparisons -- opcodes are small ints and keys come straight
        from the interned pool (one shared bytes object per distinct
        key, so no per-op allocation).
        """
        keys = self.unique_keys()
        for code, kid, vsize in zip(self._ops, self._kids, self._vsizes):
            yield code, keys[kid], vsize

    def __getitem__(self, index):
        if isinstance(index, slice):
            new = self.__class__()
            new._ops = self._ops[index]
            new._vsizes = self._vsizes[index]
            new._tstamps = self._tstamps[index]
            new._kids = self._kids[index]
            new._kblob = bytearray(self._kblob)
            new._koffs = array("Q", self._koffs)
            new._kindex = None
            new._klist = None
            return new
        return self._materialize(index)

    def select(self, indices: Iterable[int]) -> "AccessTrace":
        """New trace holding the rows at ``indices``, in that order.

        A columnar gather: the key pool is carried over wholesale so
        key ids stay valid and no re-interning happens.
        """
        new = self.__class__()
        new._ops = array("B", map(self._ops.__getitem__, indices))
        n = len(new._ops)
        if n:
            new._vsizes = array("I", map(self._vsizes.__getitem__, indices))
            new._tstamps = array("q", map(self._tstamps.__getitem__, indices))
            new._kids = array("I", map(self._kids.__getitem__, indices))
        new._kblob = bytearray(self._kblob)
        new._koffs = array("Q", self._koffs)
        new._kindex = None
        new._klist = None
        return new

    # -- compatibility view --------------------------------------------------

    @property
    def accesses(self) -> List[StateAccess]:
        """The trace as a list of :class:`StateAccess` (materialized).

        A compatibility view of the columns; mutations to the returned
        list do not write back into the trace.
        """
        return list(self)

    # -- summaries -----------------------------------------------------------

    def op_counts(self) -> Dict[OpType, int]:
        ops = self._ops
        if hasattr(ops, "count"):
            return {op: ops.count(code) for op, code in _OP_CODES.items()}
        # attached traces expose the opcode column as a memoryview,
        # which has no ``count``
        totals = [0, 0, 0, 0]
        for code in ops:
            totals[code] += 1
        return {op: totals[code] for op, code in _OP_CODES.items()}

    def op_fractions(self) -> Dict[OpType, float]:
        counts = self.op_counts()
        total = len(self._ops)
        if total == 0:
            return {op: 0.0 for op in OpType}
        return {op: count / total for op, count in counts.items()}

    def key_sequence(self) -> List[bytes]:
        keys = self.unique_keys()
        return [keys[kid] for kid in self._kids]

    def distinct_keys(self) -> int:
        return len(set(self._kids))

    def filter(self, predicate: Callable[[StateAccess], bool]) -> "AccessTrace":
        return self.select(
            [index for index, access in enumerate(self) if predicate(access)]
        )

    # -- persistence (the paper's "offline mode" trace files) ----------------

    MAGIC = b"GDGT"
    VERSION = 2

    def save(self, path: str) -> None:
        """Write a trace file in format v2 (columnar).

        v2 lays the columns out back to back after a fixed header, so
        saving is a handful of buffer-sized writes instead of one
        ``struct.pack`` per record.
        """
        with open(path, "wb") as handle:
            handle.write(self.MAGIC)
            handle.write(_HEADER.pack(self.VERSION, len(self._ops)))
            handle.write(_V2_HEADER.pack(len(self._koffs) - 1, len(self._kblob)))
            handle.write(_le(self._koffs))
            handle.write(self._kblob)
            handle.write(_le(self._ops))
            handle.write(_le(self._kids))
            handle.write(_le(self._vsizes))
            handle.write(_le(self._tstamps))

    @classmethod
    def load(cls, path: str) -> "AccessTrace":
        with open(path, "rb") as handle:
            data = handle.read()
        if data[:4] != cls.MAGIC:
            raise ValueError(f"{path} is not a Gadget trace file")
        version, count = _HEADER.unpack_from(data, 4)
        if version == 2:
            return cls._load_v2(data, 4 + _HEADER.size, count)
        raise ValueError(f"unsupported trace version: {version}")

    # -- shared-memory images (multi-process replay) -------------------------
    #
    # The v2 file layout doubles as the in-memory wire format between
    # replay processes: the parent writes one image into a
    # ``multiprocessing.shared_memory`` segment and every worker
    # rebuilds column *views* over the same physical pages --
    # zero-copy, no pickling of multi-million-op traces.

    def image_nbytes(self) -> int:
        """Exact byte size of this trace's v2 image (for sizing a
        shared-memory segment before :meth:`write_image`)."""
        count = len(self._ops)
        return (
            4  # magic
            + _HEADER.size
            + _V2_HEADER.size
            + len(self._koffs) * 8
            + len(self._kblob)
            + count * (1 + 4 + 4 + 8)  # ops + kids + vsizes + tstamps
        )

    def write_image(self, buffer) -> int:
        """Serialize the v2 image into a writable buffer; returns the
        bytes written (== :meth:`image_nbytes`).

        ``buffer`` is any writable bytes-like object at least
        ``image_nbytes()`` long -- typically a
        ``multiprocessing.shared_memory.SharedMemory().buf``.
        """
        view = memoryview(buffer)
        offset = 0

        def put(chunk) -> None:
            nonlocal offset
            nbytes = len(chunk)
            view[offset : offset + nbytes] = chunk
            offset += nbytes

        put(self.MAGIC)
        put(_HEADER.pack(2, len(self._ops)))
        put(_V2_HEADER.pack(len(self._koffs) - 1, len(self._kblob)))
        put(_le(self._koffs))
        put(bytes(self._kblob))
        put(_le(self._ops))
        put(_le(self._kids))
        put(_le(self._vsizes))
        put(_le(self._tstamps))
        return offset

    @classmethod
    def attach(cls, buffer) -> "AccessTrace":
        """Trace view over a v2 image in ``buffer`` -- zero-copy.

        On little-endian hosts (the file byte order) every column is a
        ``memoryview`` cast straight over the buffer: no bytes are
        copied, so attaching a multi-GB shared trace is O(1).
        Big-endian hosts fall back to byteswapped array copies.

        Attached traces are **read-only** (``record``/``extend`` on
        one raise).  :meth:`select` gathers into fresh, independent
        arrays, so a worker can attach, carve out its shard, then drop
        the attached trace to release the buffer -- an outstanding
        memoryview keeps ``SharedMemory.close()`` from unmapping.
        """
        view = memoryview(buffer)
        if bytes(view[:4]) != cls.MAGIC:
            raise ValueError("buffer does not hold a Gadget trace image")
        version, count = _HEADER.unpack_from(view, 4)
        if version != 2:
            raise ValueError(
                f"can only attach v2 columnar images, got version {version}"
            )
        offset = 4 + _HEADER.size
        n_unique, blob_len = _V2_HEADER.unpack_from(view, offset)
        offset += _V2_HEADER.size

        def take(nbytes: int):
            nonlocal offset
            chunk = view[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError("truncated trace image")
            offset += nbytes
            return chunk

        trace = cls()
        if _LITTLE_ENDIAN:
            trace._koffs = take((n_unique + 1) * 8).cast("Q")
            trace._kblob = take(blob_len)
            trace._ops = take(count)
            trace._kids = take(count * 4).cast("I")
            trace._vsizes = take(count * 4).cast("I")
            trace._tstamps = take(count * 8).cast("q")
        else:
            trace._koffs = _from_le("Q", take((n_unique + 1) * 8))
            trace._kblob = bytearray(take(blob_len))
            trace._ops = _from_le("B", take(count))
            trace._kids = _from_le("I", take(count * 4))
            trace._vsizes = _from_le("I", take(count * 4))
            trace._tstamps = _from_le("q", take(count * 8))
        trace._kindex = None
        trace._klist = None
        return trace

    @classmethod
    def _load_v2(cls, data: bytes, offset: int, count: int) -> "AccessTrace":
        n_unique, blob_len = _V2_HEADER.unpack_from(data, offset)
        offset += _V2_HEADER.size
        view = memoryview(data)

        def take(nbytes: int):
            nonlocal offset
            chunk = view[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError("truncated trace file")
            offset += nbytes
            return chunk

        trace = cls()
        trace._koffs = _from_le("Q", take((n_unique + 1) * 8))
        trace._kblob = bytearray(take(blob_len))
        trace._ops = _from_le("B", take(count))
        trace._kids = _from_le("I", take(count * 4))
        trace._vsizes = _from_le("I", take(count * 4))
        trace._tstamps = _from_le("q", take(count * 8))
        trace._kindex = None
        trace._klist = None
        return trace


def shuffled_trace(trace: AccessTrace, rng) -> AccessTrace:
    """Random permutation of a trace (the paper's locality baseline).

    Preserves key popularity while destroying ordering, which is how
    Figures 5 and 7 contrast real locality against chance.  Shuffles a
    row-index permutation and gathers the columns, so the permutation
    drawn from ``rng`` is identical to shuffling the access list.
    """
    indices = list(range(len(trace)))
    rng.shuffle(indices)
    return trace.select(indices)


def concat_traces(traces: Sequence[AccessTrace]) -> AccessTrace:
    merged = AccessTrace()
    for trace in traces:
        merged.extend(trace)
    return merged


def interleave_traces(traces: Sequence[AccessTrace]) -> AccessTrace:
    """Round-robin interleaving, modelling concurrent operator tasks
    sharing one store instance (paper section 6.4)."""
    merged = AccessTrace()
    remaps = [
        array("I", [merged._intern(key) for key in trace.unique_keys()])
        for trace in traces
    ]
    ops = merged._ops
    kids = merged._kids
    vsizes = merged._vsizes
    tstamps = merged._tstamps
    iterators = [
        zip(t._ops, t._kids, t._vsizes, t._tstamps) for t in traces
    ]
    active = list(range(len(iterators)))
    while active:
        still_active = []
        for idx in active:
            try:
                code, kid, vsize, tstamp = next(iterators[idx])
            except StopIteration:
                continue
            ops.append(code)
            kids.append(remaps[idx][kid])
            vsizes.append(vsize)
            tstamps.append(tstamp)
            still_active.append(idx)
        active = still_active
    return merged
