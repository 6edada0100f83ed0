"""Multi-pass Cornucopia: the dead end that motivated Reloaded (§3.1).

Before building Reloaded, the Cornucopia authors tried iterating the
store-tracking strategy — running a *second* concurrent pass over the
pages re-dirtied during the first, hoping to leave fewer pages for the
stop-the-world phase. It "showed very little reduction in pause times
[23, fig. 15] and, by definition, would anyway increase total work and
DRAM traffic" — because an application that dirties pages during pass 1
keeps dirtying them during pass 2; the world-stopped re-scan shrinks only
as much as the store rate happens to fall.

:class:`MultipassCornucopiaRevoker` implements N concurrent passes so the
motivation experiment is reproducible (bench_ablation_multipass): pause
times barely move while sweep traffic grows with every extra pass.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.cornucopia import CornucopiaRevoker
from repro.machine.cpu import Core
from repro.machine.scheduler import CoreSlot, ResumeWorld, StopWorld


class MultipassCornucopiaRevoker(CornucopiaRevoker):
    """Cornucopia with ``passes`` concurrent rounds before the STW."""

    name = "cornucopia-multipass"

    def __init__(self, *args, passes: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if passes < 1:
            raise ValueError("need at least one concurrent pass")
        self.passes = passes
        #: Pages swept per concurrent round, per epoch (for the ablation).
        self.pass_page_counts: list[list[int]] = []

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall

        # Concurrent rounds: the first covers every capability-dirty
        # page; later rounds re-sweep only what got re-dirtied meanwhile.
        per_pass: list[int] = []
        concurrent_begin = slot.time
        self.machine.bus.sweep_begin()
        try:
            for round_no in range(self.passes):
                if round_no == 0:
                    targets = self.machine.pagetable.cap_dirty_pages()
                else:
                    targets = self.machine.pagetable.redirtied_pages()
                    if not targets:
                        per_pass.append(0)
                        continue
                before = record.pages_swept
                yield from self.sweep_pages(
                    core, targets, record, extra_per_page=self.costs.pte_update
                )
                per_pass.append(record.pages_swept - before)
            yield self.machine.tlb_shootdown()
        finally:
            self.machine.bus.sweep_end()
        self._phase(record, "concurrent", "concurrent", concurrent_begin, slot.time)
        self.pass_page_counts.append(per_pass)

        # The stop-the-world phase is unchanged: whatever is *still*
        # re-dirtied must be swept with the world stopped.
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
