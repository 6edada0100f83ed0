"""Cornucopia Reloaded: load-barrier revocation (§3-4).

The strategy this paper (and repository) is about. Each epoch:

1. **Stop-the-world** (tiny): quiesce the process, flip every core's
   capability load generation register (no PTE is touched, no shootdown —
   §4.1), and scan the capability roots: thread register files and kernel
   hoards (§4.4). This re-establishes the central invariant: *no
   capability held in a register or loadable without a trap points into
   pre-epoch quarantine* (§3.2).
2. **Concurrent**: application capability loads from stale-generation
   pages trap; the fault handler sweeps the page on the faulting core and
   updates the PTE (foreground, self-healing — §2.3 fn. 14, §4.3).
   Meanwhile a background pass visits all remaining stale pages:
   capability-dirty ones get a full content sweep, clean ones a cheap
   generation-only PTE update. Pages stored to during the epoch need no
   re-visit — only already-checked capabilities can have been stored
   (§3.2), which is precisely the work Cornucopia wastes.

The epoch ends when every PTE carries the new generation.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.base import EpochRecord, Revoker
from repro.machine.cpu import Core
from repro.machine.pagetable import PTE
from repro.machine.scheduler import CoreSlot, ResumeWorld, StopWorld
from repro.obs.tracer import TRACER


class ReloadedRevoker(Revoker):
    """Per-page capability load barrier revocation."""

    name = "reloaded"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The generation value PTEs must reach for the current epoch.
        self.current_lg = 0
        self.foreground_faults = 0
        self.spurious_faults = 0

    # --- Foreground: the load barrier fault handler (§4.3) ---------------------

    def handle_lg_fault(self, core: Core, vpn: int) -> int:
        """Sweep the faulting page on the faulting thread's core and heal
        the PTE; returns cycles charged to the faulting thread."""
        cycles = self.costs.trap_roundtrip + self.costs.pmap_lock
        pte = self.machine.pagetable.require(vpn)
        if pte.lg == core.clg:
            # Another core (or the background pass) already processed this
            # page; only the local TLB is stale (§4.3 first pmap check).
            self.spurious_faults += 1
            cycles += core.resolve_spurious_lg_fault(vpn)
            if TRACER.enabled:
                TRACER.emit("revoker.fault", vpn=vpn, spurious=True, cycles=cycles)
            return cycles
        record = self._current_record
        if record is None:
            # A stale page outside an epoch would be an invariant violation.
            raise RuntimeError(
                f"load-generation fault on page {vpn} with no epoch in flight"
            )
        sweep = self.sweep_page(core, pte, record, warm_cache=True)
        pte.lg = core.clg
        core.tlb.fill(vpn, pte)
        cycles += sweep + self.costs.pmap_lock + self.costs.pte_update
        record.fault_cycles += cycles
        record.fault_count += 1
        self.foreground_faults += 1
        if TRACER.enabled:
            TRACER.emit(
                "revoker.fault",
                vpn=vpn,
                spurious=False,
                cycles=cycles,
                epoch=record.epoch,
            )
        return cycles

    # --- The epoch ------------------------------------------------------------------

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall
        new_lg = self.current_lg ^ 1

        # Phase 1: the (brief) stop-the-world.
        yield StopWorld()
        stw_begin = slot.time
        yield self.stw_entry_cycles()
        for cpu in self.machine.cores:
            yield cpu.flip_clg()
        self.current_lg = new_lg
        # Fresh mappings must be born with the new generation (§4.1 fn. 19).
        self.address_space.current_lg = new_lg
        scan_cycles, _ = self.scan_roots(record)
        yield scan_cycles
        yield ResumeWorld()
        self._phase(record, "stw", "stw", stw_begin, slot.time)

        # Phase 2: background sweep of all still-stale pages, racing the
        # application's foreground faults.
        concurrent_begin = slot.time
        self.machine.bus.sweep_begin()
        try:
            yield from self.generation_pass(
                core, list(self.machine.pagetable.mapped_pages()), new_lg, record
            )
        finally:
            self.machine.bus.sweep_end()
        self._phase(record, "concurrent", "concurrent", concurrent_begin, slot.time)

        self._close_epoch(slot)

    def generation_pass(
        self, core: Core, pages: list[PTE], new_lg: int, record: EpochRecord
    ) -> Generator:
        """Bring every page of ``pages`` to generation ``new_lg`` on
        ``core``: content-sweep the stale capability-dirty ones, give the
        stale clean ones a generation-only visit, and skip guards and pages
        a foreground fault already healed. Each visit also takes the pmap
        lock and writes the PTE."""
        yield from self._sweep(
            core,
            pages,
            record,
            extra_per_page=self.costs.pmap_lock + self.costs.pte_update,
            new_lg=new_lg,
        )
