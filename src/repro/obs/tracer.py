"""The structured-event tracer.

One process-wide :data:`TRACER` singleton is wired into the hot paths of
the machine, kernel, and allocator layers. Every hook site is guarded::

    if TRACER.enabled:
        TRACER.emit("cache.evict", source=..., lines=...)

so the *disabled* cost is a single attribute check on a module-level
object — no call, no allocation, no dict lookup. No test pins that
cost; a new hook site's host time shows up in ``bench/`` as
``spec-churn`` ``wall_s``. The singleton is never rebound; hook sites
may safely bind it at import time with
``from repro.obs.tracer import TRACER``.

When enabled, events land in a bounded ring buffer: once ``capacity``
events are held, the oldest are overwritten and counted as dropped —
recording never grows without bound and never fails. Timestamps default
to the installed ``clock`` (the simulation installs the scheduler's wall
clock); sites that know a more precise per-core time pass ``ts=``
explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.metrics import MetricsRegistry

#: Default ring capacity: bounded memory (~tens of MB) while deep enough
#: for every epoch of the evaluation-scale runs.
DEFAULT_CAPACITY = 1 << 18


@dataclass
class TraceEvent:
    """One structured event: a name, a cycle timestamp, and its fields."""

    name: str
    ts: int
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """A ring-buffered structured-event recorder with attached metrics."""

    __slots__ = ("enabled", "clock", "capacity", "metrics", "_buf", "_head", "emitted")

    def __init__(self) -> None:
        #: The one-attribute-check fast-path gate every hook site reads.
        self.enabled = False
        #: Default timestamp source (cycles); installed by the simulation.
        self.clock: Callable[[], int] | None = None
        self.capacity = DEFAULT_CAPACITY
        self.metrics = MetricsRegistry()
        self._buf: list[TraceEvent] = []
        self._head = 0
        #: Lifetime events emitted since :meth:`start` (≥ buffered count).
        self.emitted = 0

    # --- Recording control -------------------------------------------------

    def start(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], int] | None = None,
    ) -> None:
        """Begin a fresh recording (discards any previous buffer)."""
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.metrics = MetricsRegistry()
        self._buf = []
        self._head = 0
        self.emitted = 0
        self.enabled = True

    def stop(self) -> None:
        """Stop recording; the buffer stays readable until the next start."""
        self.enabled = False
        self.clock = None

    # --- Emission ----------------------------------------------------------

    def emit(self, name: str, ts: int | None = None, **args: Any) -> None:
        """Record one event. No-op while disabled (hook sites check
        :attr:`enabled` first; this re-check keeps direct calls safe)."""
        if not self.enabled:
            return
        if ts is None:
            clock = self.clock
            ts = clock() if clock is not None else 0
        event = TraceEvent(name, ts, args)
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append(event)
        else:
            buf[self._head] = event
            self._head = (self._head + 1) % self.capacity
        self.emitted += 1
        self.metrics.counter(f"events/{name}").inc()

    # --- Reading -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events overwritten by ring wraparound since :meth:`start`."""
        return self.emitted - len(self._buf)

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return self._buf[self._head:] + self._buf[: self._head]

    def __len__(self) -> int:
        return len(self._buf)


#: The process-wide tracer every instrumentation hook checks.
TRACER = Tracer()


@contextmanager
def tracing(
    capacity: int = DEFAULT_CAPACITY,
    clock: Callable[[], int] | None = None,
) -> Iterator[Tracer]:
    """Enable :data:`TRACER` for the duration of a ``with`` block."""
    TRACER.start(capacity=capacity, clock=clock)
    try:
        yield TRACER
    finally:
        TRACER.stop()
