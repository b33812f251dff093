"""Log-bucketed latency histogram (HdrHistogram-style).

Recording every latency sample in a list costs memory proportional to
the trace (the paper replays 2M operations per experiment).  This
histogram records in O(1) memory with bounded relative error: buckets
are log-spaced with ``subbuckets`` linear divisions per power of two,
giving a worst-case quantile error of ``1 / subbuckets``.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mul
from typing import Dict, Iterable, List, Tuple


class LatencyHistogram:
    """Fixed-size histogram over non-negative integer values (ns)."""

    def __init__(self, subbuckets: int = 32, max_exponent: int = 40) -> None:
        if subbuckets < 2 or subbuckets & (subbuckets - 1):
            raise ValueError("subbuckets must be a power of two >= 2")
        self.subbuckets = subbuckets
        self.max_exponent = max_exponent
        self._sub_bits = subbuckets.bit_length() - 1
        self._counts = [0] * ((max_exponent + 1) * subbuckets)
        self.total = 0
        self.sum_values = 0
        self.min_value: int = -1
        self.max_value = 0

    # -- recording ----------------------------------------------------------

    def _index(self, value: int) -> int:
        if value < self.subbuckets:
            return value  # exact in the first linear region
        exponent = value.bit_length() - self._sub_bits
        sub = value >> exponent
        index = exponent * self.subbuckets + sub
        return min(index, len(self._counts) - 1)

    def record(self, value: int) -> None:
        if value < 0:
            value = 0
        self._counts[self._index(value)] += 1
        self.total += 1
        self.sum_values += value
        if self.min_value < 0 or value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def record_many(self, values: Iterable[int]) -> None:
        """Record every value; the same state as :meth:`record` on each.

        Folds the chunk in one pass: a ``Counter`` over the values, one
        inline :meth:`_index` per *distinct* value (ns latencies repeat
        heavily within a chunk), and one min/max/sum per chunk.
        """
        tally = Counter(values)
        if not tally:
            return
        low = min(tally)
        if low < 0:
            for value in [value for value in tally if value < 0]:
                tally[0] += tally.pop(value)
            low = 0
        counts = self._counts
        subbuckets, sub_bits, last = self.subbuckets, self._sub_bits, len(counts) - 1
        for value, count in tally.items():
            if value >= subbuckets:
                exponent = value.bit_length() - sub_bits
                value = exponent * subbuckets + (value >> exponent)
                if value > last:
                    value = last
            counts[value] += count
        if self.min_value < 0 or low < self.min_value:
            self.min_value = low
        high = max(tally)
        if high > self.max_value:
            self.max_value = high
        self.total += sum(tally.values())
        self.sum_values += sum(map(mul, tally.keys(), tally.values()))

    # -- reading ------------------------------------------------------------

    def _bucket_midpoint(self, index: int) -> int:
        if index < self.subbuckets:
            return index
        exponent = index // self.subbuckets
        sub = index % self.subbuckets
        low = sub << exponent
        high = (sub + 1) << exponent
        return (low + high - 1) // 2

    def percentile(self, percent: float) -> int:
        """Approximate value at the given percentile (0..100]."""
        if self.total == 0:
            return 0
        if percent >= 100.0:
            return self.max_value
        target = max(1, int(round(percent / 100.0 * self.total)))
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target:
                # Clamp to the recorded range on both sides: a bucket
                # midpoint can undershoot min_value just as it can
                # overshoot max_value.
                midpoint = max(self._bucket_midpoint(index), self.min_value)
                return min(midpoint, self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        return self.sum_values / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        if (
            other.subbuckets != self.subbuckets
            or other.max_exponent != self.max_exponent
        ):
            raise ValueError("histograms have different geometry")
        if other.total == 0:
            return
        self._counts[:] = map(add, self._counts, other._counts)
        self.total += other.total
        self.sum_values += other.sum_values
        if other.min_value >= 0 and (
            self.min_value < 0 or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        self.max_value = max(self.max_value, other.max_value)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Sparse, merge-preserving JSON form (metrics JSONL schema).

        Carries the geometry and the raw bucket counts (not midpoints),
        so :meth:`from_dict` rebuilds a histogram that merges and
        answers percentiles exactly like the original -- sampled
        interval histograms can be re-aggregated offline.
        """
        return {
            "subbuckets": self.subbuckets,
            "max_exponent": self.max_exponent,
            "total": self.total,
            "sum": self.sum_values,
            "min": self.min_value,
            "max": self.max_value,
            "counts": {
                str(index): count
                for index, count in enumerate(self._counts)
                if count
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram exported by :meth:`to_dict`.

        Raises :class:`ValueError` (never a bare ``IndexError``) on
        malformed input: out-of-range bucket indices, negative counts,
        or totals inconsistent with the bucket counts.  Multi-process
        replays transport every worker's histogram through this path,
        so a corrupted payload must fail loudly rather than silently
        skew the merged quantiles.
        """
        histogram = cls(
            subbuckets=int(data["subbuckets"]),
            max_exponent=int(data["max_exponent"]),
        )
        num_buckets = len(histogram._counts)
        for raw_index, raw_count in data.get("counts", {}).items():
            try:
                index = int(raw_index)
                count = int(raw_count)
            except (TypeError, ValueError):
                raise ValueError(
                    f"histogram bucket entry {raw_index!r}: {raw_count!r} "
                    "is not an integer index/count pair"
                ) from None
            if not 0 <= index < num_buckets:
                raise ValueError(
                    f"histogram bucket index {index} out of range for "
                    f"geometry subbuckets={histogram.subbuckets} "
                    f"max_exponent={histogram.max_exponent} "
                    f"({num_buckets} buckets)"
                )
            if count < 0:
                raise ValueError(
                    f"histogram bucket {index} has negative count {count}"
                )
            histogram._counts[index] = count
        total = int(data["total"])
        sum_values = int(data["sum"])
        min_value = int(data["min"])
        max_value = int(data["max"])
        counted = sum(histogram._counts)
        if total != counted:
            raise ValueError(
                f"histogram total {total} does not match bucket counts "
                f"(sum {counted})"
            )
        if sum_values < 0:
            raise ValueError(f"histogram sum must be >= 0, got {sum_values}")
        if total == 0:
            if min_value != -1 or max_value != 0 or sum_values != 0:
                raise ValueError(
                    "empty histogram must have min=-1 max=0 sum=0, got "
                    f"min={min_value} max={max_value} sum={sum_values}"
                )
        elif min_value < 0 or max_value < min_value:
            raise ValueError(
                f"histogram min/max inconsistent: min={min_value} "
                f"max={max_value} with total={total}"
            )
        histogram.total = total
        histogram.sum_values = sum_values
        histogram.min_value = min_value
        histogram.max_value = max_value
        return histogram

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """(midpoint, count) pairs for every populated bucket."""
        return [
            (self._bucket_midpoint(index), count)
            for index, count in enumerate(self._counts)
            if count
        ]

    def summary(self, scale: float = 1000.0) -> Dict[str, float]:
        """p50/p99/p99.9/max in units of ``scale`` ns (default us)."""
        return {
            "p50": self.percentile(50.0) / scale,
            "p99": self.percentile(99.0) / scale,
            "p99.9": self.percentile(99.9) / scale,
            "max": self.max_value / scale,
            "mean": self.mean / scale,
        }
