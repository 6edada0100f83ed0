"""Per-core cache and memory-bus traffic accounting.

The paper reports "bus accesses (a proxy for DRAM accesses) ... by
system-mode pmcstat" (§5) per core; figures 4 and 6 compare the traffic
each revocation strategy induces. This module provides the equivalent
instrumentation: each simulated core owns a single-level LRU line cache in
front of a shared :class:`Bus` that counts transactions per source.

The cache is deliberately simple (fully-associative LRU over 64-byte
lines). What the figures measure is *which pages get streamed how many
times* by sweeps versus the application's resident working set — behaviour
an LRU capture perfectly well — not associativity effects.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice, repeat

from repro.errors import SimulationError
from repro.machine.costs import LINE_BYTES, LINES_PER_PAGE
from repro.obs.tracer import TRACER

#: Spans at or below this many lines go straight to the scalar loop:
#: the batched path's setup costs more than it saves on tiny accesses
#: (ordinary data loads/stores touch one or two lines).
_SPAN_BATCH_MIN_LINES = 4


@dataclass
class BusCounters:
    """Transaction counts attributed to one source (core or subsystem)."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class Bus:
    """The shared memory bus: counts DRAM transactions per source.

    Also tracks whether a revocation sweep is actively streaming memory;
    the CPU model consults :attr:`sweep_active` to apply the bandwidth
    contention factor (§5.6) to concurrent application misses.
    """

    def __init__(self) -> None:
        self.counters: dict[str, BusCounters] = {}
        self._sweepers: int = 0

    def _of(self, source: str) -> BusCounters:
        counters = self.counters.get(source)
        if counters is None:
            counters = self.counters[source] = BusCounters()
        return counters

    def read(self, source: str, lines: int = 1) -> None:
        self._of(source).reads += lines

    def write(self, source: str, lines: int = 1) -> None:
        self._of(source).writes += lines

    # --- Sweep contention -------------------------------------------------

    def sweep_begin(self) -> None:
        self._sweepers += 1
        if TRACER.enabled:
            TRACER.emit("sweep.begin", transactions=self.total_transactions())

    def sweep_end(self) -> None:
        if self._sweepers <= 0:
            raise SimulationError("sweep_end without a matching sweep_begin")
        self._sweepers -= 1
        if TRACER.enabled:
            TRACER.emit("sweep.end", transactions=self.total_transactions())

    @property
    def sweep_active(self) -> bool:
        return self._sweepers > 0

    # --- Reporting ---------------------------------------------------------

    def total_transactions(self) -> int:
        return sum(c.total for c in self.counters.values())

    def transactions(self, source: str) -> int:
        # Pure read: must not materialize a counter for an unknown source
        # (that would pollute snapshot()/total_transactions()).
        counters = self.counters.get(source)
        return counters.total if counters is not None else 0

    def snapshot(self) -> dict[str, int]:
        return {name: c.total for name, c in self.counters.items()}


class Cache:
    """A fully-associative LRU cache of 64-byte lines for one core.

    ``access`` returns True on a miss. Misses issue a bus read; evicting a
    dirty line issues a bus write-back.
    """

    def __init__(self, bus: Bus, source: str, capacity_bytes: int = 1 << 20) -> None:
        if capacity_bytes < LINE_BYTES:
            raise ValueError("cache smaller than one line")
        self.bus = bus
        self.source = source
        self.capacity_lines = capacity_bytes // LINE_BYTES
        #: line address -> dirty flag, in LRU order (oldest first).
        self._lines: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _touch(self, line: int, write: bool) -> bool:
        """Access one line; returns True if it missed."""
        lines = self._lines
        if line in lines:
            dirty = lines.pop(line)
            lines[line] = dirty or write
            self.hits += 1
            return False
        self.misses += 1
        self.bus.read(self.source)
        if len(lines) >= self.capacity_lines:
            _, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                self.bus.write(self.source)
        lines[line] = write
        return True

    def _touch_loop(self, first: int, last: int, write: bool) -> int:
        """The scalar reference path: one :meth:`_touch` per line."""
        misses = 0
        for line in range(first, last + 1):
            if self._touch(line, write):
                misses += 1
        return misses

    def _touch_span(self, first: int, last: int, write: bool) -> int:
        """Batched equivalent of :meth:`_touch_loop` over ``[first, last]``.

        Computes hits, misses, and evictions with set/interval arithmetic
        over the LRU dict instead of per-line bookkeeping. Exactly
        bit-equivalent to the scalar loop — including final LRU order (the
        span's lines end up most-recent in ascending address order) and
        dirty-victim write-backs — except in two rare interleavings it
        detects and punts to the loop: the span is larger than the
        remaining capacity headroom allows without evicting lines the span
        itself (re)inserted, or one of the would-be victims is a span line
        the loop would have refreshed first.
        """
        lines = self._lines
        span = range(first, last + 1)
        n = len(span)
        resident = lines.keys() & span
        nhits = len(resident)
        misses = n - nhits
        evictions = len(lines) + misses - self.capacity_lines
        if evictions > 0:
            if evictions > len(lines) - nhits:
                # Victims would include span lines inserted by this very
                # access (capacity smaller than the span's footprint).
                return self._touch_loop(first, last, write)
            victims = tuple(islice(lines, evictions))
            if not resident.isdisjoint(victims):
                # An LRU-front span line would be refreshed mid-loop and
                # escape eviction; the interleaving matters — replay it.
                return self._touch_loop(first, last, write)
        else:
            victims = ()
        self.hits += nhits
        self.misses += misses
        pop = lines.pop
        if misses:
            self.bus.read(self.source, misses)
        if victims:
            dirty_victims = 0
            for line in victims:
                if pop(line):
                    dirty_victims += 1
            if dirty_victims:
                self.bus.write(self.source, dirty_victims)
            if TRACER.enabled:
                TRACER.emit(
                    "cache.evict",
                    source=self.source,
                    lines=len(victims),
                    dirty=dirty_victims,
                )
        # Reinsert the whole span at the MRU end in ascending order, as
        # the ascending scalar loop leaves it.
        if write:
            for line in resident:
                pop(line)
            lines.update(zip(span, repeat(True)))
        elif not nhits:
            lines.update(zip(span, repeat(False)))
        else:
            flags = [pop(line) if line in resident else False for line in span]
            lines.update(zip(span, flags))
        return misses

    def access(self, addr: int, write: bool = False) -> bool:
        """Access the line containing ``addr``; returns True on a miss."""
        return self._touch(addr // LINE_BYTES, write)

    def access_range(self, addr: int, nbytes: int, write: bool = False) -> int:
        """Access every line in ``[addr, addr+nbytes)``; returns miss count."""
        if nbytes <= 0:
            return 0
        first = addr // LINE_BYTES
        last = (addr + nbytes - 1) // LINE_BYTES
        if last - first < _SPAN_BATCH_MIN_LINES:
            return self._touch_loop(first, last, write)
        return self._touch_span(first, last, write)

    def access_page(self, vpn: int, write: bool = False) -> int:
        """Stream one whole page through the cache (a sweep visit);
        returns the number of lines that missed."""
        base_line = vpn * LINES_PER_PAGE
        return self._touch_span(base_line, base_line + LINES_PER_PAGE - 1, write)

    def invalidate_page(self, vpn: int) -> None:
        """Drop all lines of a page (page reuse after unmap)."""
        base_line = vpn * LINES_PER_PAGE
        for line in range(base_line, base_line + LINES_PER_PAGE):
            self._lines.pop(line, None)
        if TRACER.enabled:
            TRACER.emit("cache.invalidate_page", source=self.source, vpn=vpn)

    @property
    def resident_lines(self) -> int:
        return len(self._lines)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
