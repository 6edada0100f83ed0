"""Counters and histograms behind the tracer.

A :class:`MetricsRegistry` is a flat namespace of named :class:`Counter`
and :class:`Histogram` instruments. Histograms use power-of-two buckets
(cycle counts span nine orders of magnitude between a TLB refill and a
CHERIvoke pause, so exponential buckets are the natural resolution) and
therefore stay O(64) memory regardless of observation count.

``to_dict`` produces plain JSON-able data — string keys, ints and floats
only — because registries are folded into :class:`~repro.core.metrics.RunResult`
and must survive the campaign cache's JSON round-trip bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Mapping


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Power-of-two-bucketed distribution of non-negative values.

    Bucket ``k`` counts observations with ``2**(k-1) <= int(v) < 2**k``
    — i.e. ``k = int(v).bit_length()``, with bucket 0 holding values
    below 1; exact min/max/sum ride alongside so means and
    extremes stay precise even though the distribution is bucketed.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observation must be >= 0, got {value}")
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        k = int(value).bit_length() if value >= 1 else 0
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the
        power-of-two buckets.

        Within the bucket holding rank ``q * (count - 1)``, the answer is
        linearly interpolated by rank across the bucket's span, so
        distinct interior quantiles landing in one bucket still order
        strictly (p50 < p99 for a tight distribution) and the estimate is
        deterministic. The exact min/max clamp the tails, so
        ``quantile(0.0)`` and ``quantile(1.0)`` are exact. This is what
        the serving layer's live p50/p99 latency figures come from.
        """
        from repro.errors import StatsError

        if not 0.0 <= q <= 1.0:
            raise StatsError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise StatsError("quantile of an empty histogram")
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        seen = 0
        for k in sorted(self.buckets):
            n = self.buckets[k]
            if seen + n > rank:
                # Bucket k spans [2**(k-1), 2**k); bucket 0 spans [0, 1).
                lo, hi = (0.0, 1.0) if k == 0 else (
                    float(2 ** (k - 1)), float(2 ** k)
                )
                frac = (rank - seen) / n
                return max(self.min, min(self.max, lo + (hi - lo) * frac))
            seen += n
        return self.max  # pragma: no cover - guarded by count above

    def to_dict(self) -> dict[str, Any]:
        # An empty histogram's min/max are +/-inf, which strict JSON
        # cannot carry; encode them as null (NOT 0.0 — a zero would
        # corrupt ``min`` on the first post-restore ``observe``).
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            # JSON object keys are strings; keep them so round-trips are exact.
            "buckets": {str(k): n for k, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Inverse of :meth:`to_dict`: restore a live instrument from its
        JSON snapshot (``None`` min/max map back to the empty-state
        infinities, so a restored empty histogram behaves like a fresh
        one — ``quantile`` raises, the first ``observe`` sets min/max)."""
        h = cls()
        h.count = int(data["count"])
        h.sum = float(data["sum"])
        h.min = float("inf") if data["min"] is None else float(data["min"])
        h.max = float("-inf") if data["max"] is None else float(data["max"])
        h.buckets = {int(k): int(n) for k, n in data["buckets"].items()}
        return h


class MetricsRegistry:
    """A namespace of counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    def flatten(self) -> dict[str, float]:
        """Flat ``{name: value}`` scalar view: counters by value,
        histograms by ``<name>.sum`` / ``<name>.count``."""
        out = {name: float(c.value) for name, c in sorted(self._counters.items())}
        for name, h in sorted(self._histograms.items()):
            out[f"{name}.sum"] = float(h.sum)
            out[f"{name}.count"] = float(h.count)
        return out

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able snapshot (sorted, string-keyed throughout)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`to_dict`; used when resuming a checkpointed
        run whose instruments must continue from their saved state."""
        reg = cls()
        for name, value in data.get("counters", {}).items():
            reg.counter(name).value = int(value)
        for name, hist in data.get("histograms", {}).items():
            reg._histograms[name] = Histogram.from_dict(hist)
        return reg
