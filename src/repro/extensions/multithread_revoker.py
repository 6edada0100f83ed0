"""Multi-threaded background revocation (§7.1).

Cornucopia and Reloaded use a single thread for all background sweep
work. The paper's first future-work item: split the sweep between
multiple threads so multiple cores accelerate revocation — epochs finish
sooner, so the window during which the application pays foreground faults
and contention shrinks.

:class:`MultithreadReloadedRevoker` keeps Reloaded's phases intact; only
the background pass changes: mapped pages are partitioned into stripes,
worker generators sweep the stripes on their own cores, and the
controller joins them before closing the epoch. Page visits are
idempotent within an epoch (§4.3), so striping needs no extra locking
beyond the per-PTE updates already modelled.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.revoker.reloaded import ReloadedRevoker
from repro.machine.cpu import Core
from repro.machine.pagetable import PTE
from repro.machine.scheduler import Block, CoreSlot, Event, ResumeWorld, StopWorld


class MultithreadReloadedRevoker(ReloadedRevoker):
    """Reloaded with an N-way striped background sweep."""

    name = "reloaded-mt"

    def __init__(self, *args, sweep_threads: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if sweep_threads < 1:
            raise ValueError("need at least one sweep thread")
        self.sweep_threads = sweep_threads
        #: Core indices for extra workers (assigned at revoke time from
        #: the cores not running the controller).
        self.worker_cores: list[int] = []

    def _sweep_stripe(
        self,
        core: Core,
        pages: list[PTE],
        new_lg: int,
        record,
        done: Event,
        counter: list[int],
    ) -> Generator:
        yield from self.generation_pass(core, pages, new_lg, record)
        counter[0] -= 1
        if counter[0] == 0:
            self.machine.scheduler.signal(done)

    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        record = self._open_epoch(slot)
        yield self.costs.revoke_syscall
        new_lg = self.current_lg ^ 1

        # Phase 1: identical tiny stop-the-world.
        yield StopWorld()
        stw_begin = slot.time
        yield self.stw_entry_cycles()
        for cpu in self.machine.cores:
            yield cpu.flip_clg()
        self.current_lg = new_lg
        self.address_space.current_lg = new_lg
        scan_cycles, _ = self.scan_roots(record)
        yield scan_cycles
        yield ResumeWorld()
        self._phase(record, "stw", "stw", stw_begin, slot.time)

        # Phase 2: striped background sweep across sweep_threads threads.
        concurrent_begin = slot.time
        pages = [p for p in self.machine.pagetable.mapped_pages()]
        n = self.sweep_threads
        stripes = [pages[i::n] for i in range(n)]
        done = Event("mt-sweep-done")
        counter = [n]
        self.machine.bus.sweep_begin()
        try:
            sched = self.machine.scheduler
            # Extra workers run on the other non-application cores (or
            # share this one if none were configured).
            cores = self.worker_cores or [slot.index] * (n - 1)
            for i, stripe in enumerate(stripes[1:]):
                core_index = cores[i % len(cores)]
                sched.spawn(
                    f"revoker-worker-{i}",
                    self._sweep_stripe(
                        self.machine.cores[core_index], stripe, new_lg,
                        record, done, counter,
                    ),
                    core_index,
                    stops_for_stw=False,
                )
            yield from self._sweep_stripe(core, stripes[0], new_lg, record, done, counter)
            while counter[0] > 0:
                yield Block(done)
        finally:
            self.machine.bus.sweep_end()
        self._phase(record, "concurrent", "concurrent", concurrent_begin, slot.time)

        self._close_epoch(slot)
