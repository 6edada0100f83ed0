"""Cornucopia: concurrent sweep plus a re-dirty stop-the-world (§2.2.5).

Each epoch has two phases:

1. a **concurrent** phase on the revoker's core visiting every
   capability-dirty page while the application keeps running. Capability
   stores during this phase re-dirty their pages (the hardware-assisted
   store barrier of §4.2, modelled in :meth:`repro.machine.cpu.Core.store_cap`);
2. a **stop-the-world** phase scanning capability roots and re-sweeping
   every page re-dirtied during phase 1.

Because the application may store a (not-yet-checked) capability anywhere
at any time, Cornucopia must treat every capability store as contaminating
— which is why write-heavy address spaces see it re-visit approximately
all their pages with the world stopped (§5.2, fig. 6 discussion), the
behaviour Reloaded's load barrier eliminates.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.base import Revoker
from repro.machine.cpu import Core
from repro.machine.scheduler import CoreSlot, ResumeWorld, StopWorld


class CornucopiaRevoker(Revoker):
    """Concurrent pass + world-stopped re-dirty pass."""

    name = "cornucopia"

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall

        # Phase 1: concurrent sweep of all capability-dirty pages.
        concurrent_begin = slot.time
        self.machine.bus.sweep_begin()
        try:
            yield from self.sweep_pages(
                core,
                self.machine.pagetable.cap_dirty_pages(),
                record,
                extra_per_page=self.costs.pte_update,
            )
        finally:
            self.machine.bus.sweep_end()
        # One batched shootdown publishes the cleaned state (the original
        # implementation batches these rather than IPI-ing per page).
        yield self.machine.tlb_shootdown()
        self._phase(record, "concurrent", "concurrent", concurrent_begin, slot.time)

        # Phase 2: stop the world, scan roots, re-sweep re-dirtied pages.
        yield StopWorld()
        stw_begin = slot.time
        yield self.stw_entry_cycles()
        scan_cycles, _ = self.scan_roots(record)
        yield scan_cycles
        yield from self.sweep_pages(
            core, self.machine.pagetable.redirtied_pages(), record
        )
        yield ResumeWorld()
        self._phase(record, "stw", "stw", stw_begin, slot.time)

        self._close_epoch(slot)
