"""CHERIoT-style temporal safety: a non-trapping load *filter* (§6.3).

CHERIoT adapts Reloaded to MMU-less embedded systems: the capability load
instruction probes the (architecturally defined, tightly-coupled,
physically indexed) revocation bitmap directly and clears the tag of a
condemned capability *on its way into the register file* — no trap, no
software fault handler, and no self-healing of memory (§6.3 fn. 28).

Consequences modelled here:

- freed objects become inaccessible **immediately**: painting at free is
  enough, because no load can ever produce a capability to painted
  memory. The UAF/UAR distinction disappears;
- revocation batching and epochs become invisible to the client; a
  background sweep (on the demo platform, a cycle-stealing hardware state
  machine) still runs to clear stale tags so the bitmap bits can be
  recycled, but it never stops the world;
- because the filter is not self-healing, the *same* stale capability
  costs a filter hit on every load until the sweep clears it.

:class:`LoadFilter` is the architectural piece (installed on a core);
:class:`CheriotRevoker` is the epoch-less background sweeper.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.base import Revoker
from repro.kernel.shadow import RevocationBitmap
from repro.machine.capability import Capability
from repro.machine.cpu import AccessResult, Core
from repro.machine.scheduler import CoreSlot


class LoadFilter:
    """The CHERIoT capability load filter for one core.

    Wraps a core's ``load_cap``: every tagged load probes the revocation
    bitmap with the loaded capability's base; condemned capabilities enter
    the register file with the tag cleared. The probe is charged a small
    constant (tightly-coupled memory, §6.3: low latency bounds), not a
    trap.
    """

    #: Cycles per filtered (tagged) load: the tightly-coupled bitmap probe.
    PROBE_CYCLES = 2

    def __init__(self, core: Core, shadow: RevocationBitmap) -> None:
        self.core = core
        self.shadow = shadow
        self.loads_filtered = 0
        self.caps_cleared = 0

    def load_cap(self, cap: Capability) -> AccessResult:
        """A barrier-free, filtered capability load."""
        result = self.core.load_cap(cap)  # CLG never flips: no LG faults
        value = result.value
        if value is not None and value.tag:
            self.loads_filtered += 1
            result.cycles += self.PROBE_CYCLES
            if self.shadow.is_revoked(value):
                self.caps_cleared += 1
                # Not self-healing: memory keeps the stale tag; only the
                # register copy is cleared (§6.3 fn. 28).
                return AccessResult(result.cycles, value.cleared())
        return result


class CheriotRevoker(Revoker):
    """Epoch-less background sweeping behind a load filter.

    The sweep exists to let bitmap bits (and memory) be recycled; safety
    never depends on its progress, so there is no stop-the-world anywhere
    and no foreground fault handling. Register files are scanned at the
    end of each pass (on CHERIoT the scheduler assists; there is no world
    to stop on a single-core microcontroller).
    """

    name = "cheriot"

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall
        begin = slot.time
        self.machine.bus.sweep_begin()
        try:
            yield from self.sweep_pages(
                core, self.machine.pagetable.cap_dirty_pages(), record
            )
        finally:
            self.machine.bus.sweep_end()
        # Root scan without a pause: the filter already guarantees no
        # revoked capability can be (re)loaded, so the scan needs no
        # synchronized snapshot.
        scan_cycles, _ = self.scan_roots(record)
        yield scan_cycles
        self._phase(record, "sweep", "concurrent", begin, slot.time)
        self._close_epoch(slot)


class HardwareSweepEngine:
    """CHERIoT's cycle-stealing hardware revocation state machine (§6.3).

    The Ibex implementation sweeps with a small pipelined engine that, in
    steady state, tests one capability-granule per cycle; at 20 MHz the
    demo platform's 512 KiB of RAM takes just over 3 ms to sweep — less
    than an idle time quantum. This model exposes that arithmetic (and a
    step function for simulations that want to interleave engine progress
    with application work) so the ablation can reproduce the 3 ms claim.
    """

    #: The demonstration platform's clock (§6.3).
    CLOCK_HZ = 20_000_000
    #: Steady-state throughput: one capability test per cycle.
    GRANULES_PER_CYCLE = 1
    #: CHERIoT is a 32-bit platform: capabilities are 64 bits plus tag,
    #: so the engine tests one 8-byte granule per cycle (unlike the
    #: 16-byte granules of the 64-bit machine elsewhere in this package).
    CHERIOT_GRANULE_BYTES = 8

    def __init__(self, memory_bytes: int = 512 << 10) -> None:
        self.memory_bytes = memory_bytes
        self.total_granules = memory_bytes // self.CHERIOT_GRANULE_BYTES
        self.swept_granules = 0
        self.passes_completed = 0

    def cycles_per_pass(self) -> int:
        """Engine cycles to sweep all of memory once."""
        return self.total_granules // self.GRANULES_PER_CYCLE

    def seconds_per_pass(self) -> float:
        """Wall time of one full sweep at the platform clock."""
        return self.cycles_per_pass() / self.CLOCK_HZ

    def step(self, cycles: int) -> int:
        """Advance the engine by ``cycles``; returns completed passes."""
        if cycles < 0:
            raise ValueError("negative cycles")
        self.swept_granules += cycles * self.GRANULES_PER_CYCLE
        completed = self.swept_granules // self.total_granules
        self.swept_granules %= self.total_granules
        self.passes_completed += completed
        return completed
