"""Storage-integrity primitives shared by every persistent engine.

Every byte the stores persist (WAL records, SSTable blocks, B+Tree
pages, FASTER hybrid-log segments) is covered by a per-structure
checksum so the harness can distinguish "store is slow" from "store
returned garbage".  Like RocksDB's ``ChecksumType``, the on-disk
formats carry a *checksum kind* byte rather than hard-coding one
algorithm:

* :attr:`ChecksumKind.CRC32C` -- the Castagnoli CRC used by RocksDB,
  Lethe, and FASTER.  Computed natively when the optional ``crc32c``
  package is installed, otherwise by a table-driven pure-Python
  fallback (correct but slow).
* :attr:`ChecksumKind.CRC32` -- zlib's C-accelerated CRC-32.  The
  default writer kind when no native CRC32C is available, so checksums
  never dominate the write path of a pure-Python harness.
* :attr:`ChecksumKind.NONE` -- checksums off: the same framing, with
  every stored checksum 0 (``checksum`` returns 0 under NONE, so it
  verifies with no special case).  Only structural checks guard the
  bytes; tests use it to reach damage a CRC would mask.

Each engine writes exactly one framing, and readers dispatch on the
recorded kind, so files written under one configuration are always
readable under another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional
from zlib import crc32 as _zlib_crc32

from .api import KVStoreError


class CorruptionError(KVStoreError):
    """Persisted bytes failed a checksum or structural validation.

    Raised instead of ever deserializing (and silently returning)
    garbage.  Carries enough context to locate the damage.
    """

    def __init__(self, blob: str, offset: int, detail: str) -> None:
        super().__init__(f"corruption in {blob!r} at offset {offset}: {detail}")
        self.blob = blob
        self.offset = offset
        self.detail = detail


class ChecksumKind(IntEnum):
    """Checksum algorithm id stored in every checksummed format."""

    NONE = 0
    CRC32C = 1
    CRC32 = 2


# -- CRC32C (Castagnoli), table-driven pure-Python fallback ---------------

_CRC32C_POLY = 0x82F63B78


def _make_crc32c_table() -> List[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _make_crc32c_table()


def _crc32c_py(data: bytes, crc: int = 0) -> int:
    crc ^= 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


try:  # pragma: no cover - exercised only where the package exists
    from crc32c import crc32c as _crc32c_native  # type: ignore[import-not-found]

    def crc32c(data: bytes, crc: int = 0) -> int:
        return _crc32c_native(data, crc)

    HAVE_NATIVE_CRC32C = True
except ImportError:
    crc32c = _crc32c_py
    HAVE_NATIVE_CRC32C = False


#: the kind writers use unless configured otherwise: CRC32C when a
#: native implementation exists, else zlib's C-accelerated CRC-32
DEFAULT_CHECKSUM_KIND = (
    ChecksumKind.CRC32C if HAVE_NATIVE_CRC32C else ChecksumKind.CRC32
)

#: keyed by kind; an IntEnum hashes as its int, so a stored kind byte
#: and a ChecksumKind find the same entry without an enum call
_CHECKSUM_FNS: Dict[int, Callable[[bytes], int]] = {
    ChecksumKind.NONE: lambda data: 0,
    ChecksumKind.CRC32C: crc32c,
    ChecksumKind.CRC32: _zlib_crc32,
}


def checksum(data: bytes, kind: ChecksumKind = DEFAULT_CHECKSUM_KIND) -> int:
    """32-bit checksum of ``data`` under ``kind`` (NONE returns 0)."""
    try:
        fn = _CHECKSUM_FNS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown checksum kind: {kind!r}") from None
    return fn(data) & 0xFFFFFFFF


def checksum_fn(kind: ChecksumKind) -> Callable[[bytes], int]:
    """The function :func:`checksum` dispatches to for ``kind``: resolve
    it once and call it per record, with no dispatch per call.  Every
    one returns an unsigned 32-bit value."""
    try:
        return _CHECKSUM_FNS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown checksum kind: {kind!r}") from None


def resolve_checksum_kind(name: Optional[str]) -> ChecksumKind:
    """Map a store-config string to a :class:`ChecksumKind`.

    ``None`` or ``"default"`` selects :data:`DEFAULT_CHECKSUM_KIND`;
    ``"none"`` disables checksums (same framing, checksums stored as 0).
    """
    if name is None or name == "default":
        return DEFAULT_CHECKSUM_KIND
    try:
        return ChecksumKind[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown checksum {name!r}; expected one of "
            f"{[k.name.lower() for k in ChecksumKind]} or 'default'"
        ) from None


# -- scrub reporting ------------------------------------------------------


@dataclass
class ScrubFinding:
    """One corrupt structure located by a scrub walk."""

    blob: str
    offset: int
    detail: str
    repaired: bool = False


@dataclass
class ScrubReport:
    """Outcome of walking a store's on-disk structures.

    ``corruptions_detected`` counts every structure that failed its
    checksum; of those, ``corruptions_repaired`` could be restored from
    redundant state (a clean in-memory page, a truncatable WAL tail)
    and ``unrecoverable`` could not.
    """

    structures_checked: int = 0
    corruptions_detected: int = 0
    corruptions_repaired: int = 0
    unrecoverable: int = 0
    elapsed_s: float = 0.0
    findings: List[ScrubFinding] = field(default_factory=list)

    @property
    def scrub_ms(self) -> float:
        return self.elapsed_s * 1000.0

    @property
    def clean(self) -> bool:
        return self.corruptions_detected == 0

    def merge(self, other: "ScrubReport") -> "ScrubReport":
        self.structures_checked += other.structures_checked
        self.corruptions_detected += other.corruptions_detected
        self.corruptions_repaired += other.corruptions_repaired
        self.unrecoverable += other.unrecoverable
        self.elapsed_s += other.elapsed_s
        self.findings.extend(other.findings)
        return self

    def add(self, finding: ScrubFinding) -> None:
        self.findings.append(finding)
        self.corruptions_detected += 1
        if finding.repaired:
            self.corruptions_repaired += 1
        else:
            self.unrecoverable += 1

    def summary(self) -> dict:
        return {
            "structures_checked": self.structures_checked,
            "corruptions_detected": self.corruptions_detected,
            "corruptions_repaired": self.corruptions_repaired,
            "unrecoverable": self.unrecoverable,
            "scrub_ms": self.scrub_ms,
        }


class timed_scrub:
    """Context manager stamping ``elapsed_s`` onto a report."""

    def __init__(self, report: ScrubReport) -> None:
        self.report = report

    def __enter__(self) -> ScrubReport:
        self._began = time.perf_counter()
        return self.report

    def __exit__(self, *exc_info) -> None:
        self.report.elapsed_s += time.perf_counter() - self._began


@dataclass
class IntegrityCounters:
    """Ambient corruption counters a store accumulates while running
    (recovery truncations, read-path detections, scrub results)."""

    detected: int = 0
    repaired: int = 0

    def absorb(self, report: ScrubReport) -> None:
        self.detected += report.corruptions_detected
        self.repaired += report.corruptions_repaired
