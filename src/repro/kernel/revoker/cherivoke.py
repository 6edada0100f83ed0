"""CHERIvoke: fully stop-the-world sweeping revocation (§2.2.1).

The paper's "CHERIvoke" condition is its Cornucopia re-implementation
*eschewing the concurrent phase*: one revocation epoch stops the world,
scans capability roots, sweeps every capability-dirty page, and restarts
the world. Simple, correct, and — for large heaps — seconds of pause
(fig. 9's blue series).
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.base import Revoker
from repro.machine.cpu import Core
from repro.machine.scheduler import CoreSlot, ResumeWorld, StopWorld


class CheriVokeRevoker(Revoker):
    """Single world-stopped sweep per epoch."""

    name = "cherivoke"

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall

        yield StopWorld()
        stw_begin = slot.time
        yield self.stw_entry_cycles()
        scan_cycles, _ = self.scan_roots(record)
        yield scan_cycles
        # Sweep everything that may hold capabilities, world stopped.
        # (Batched yields: same pause end-cycle, one scheduler step per
        # ~SWEEP_YIELD_CYCLES instead of one per page.)
        yield from self.sweep_pages(
            core, self.machine.pagetable.cap_dirty_pages(), record
        )
        yield ResumeWorld()
        self._phase(record, "sweep", "stw", stw_begin, slot.time)

        self._close_epoch(slot)
