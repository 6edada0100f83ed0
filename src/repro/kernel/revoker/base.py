"""Shared revocation machinery: the windowed page sweep engine,
capability-root scans, and per-epoch phase timing records.

Every strategy (CHERIvoke, Cornucopia, Reloaded) is a :class:`Revoker`
whose :meth:`revoke` is a generator executing one full revocation epoch on
the controller thread's core, yielding cycle costs (and the scheduler's
stop-/resume-world control objects) as it goes. The epoch protocol is
identical across strategies (§2.2.3): increment the public counter before
starting, sweep per the strategy, increment again after.

The sweep inner loop is the paper's: for each tagged granule of a page,
probe the revocation bitmap with the capability's *base*; clear the tag if
painted (§2.2.2). Traffic is charged through the executing core's cache —
the page's 64 lines plus the 32 bytes of shadow bitmap it maps to.

Every sweep runs on one engine, :meth:`Revoker._sweep`: the stop-the-world
and concurrent sweeps of :meth:`Revoker.sweep_pages`, Reloaded's
generation pass, and the foreground fault sweep (:meth:`Revoker.sweep_page`,
a window of one page). A sweep yields to the scheduler once per
:data:`SWEEP_YIELD_CYCLES` batch and nothing else runs in between, so the
engine scans every page a batch can reach in one numpy gather of tagged
bases against the shadow bitmap (what a hardware sweep engine would
pipeline), charges them in order, and clears the condemned tags of the
pages it charged as one masked store before the yield. The per-granule
loop remains as the reference model (:meth:`Revoker._scan_window_scalar`)
that tests/test_sweep_equivalence.py pins the vector scan against.
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.errors import SimulationError
from repro.kernel.epoch import EpochClock
from repro.kernel.hoards import KernelHoards, RegisterFile, ScanOutcome
from repro.kernel.shadow import RevocationBitmap
from repro.kernel.vm import AddressSpace
from repro.machine.costs import GRANULES_PER_PAGE, LINE_BYTES, LINES_PER_PAGE
from repro.machine.cpu import Core
from repro.machine.machine import Machine
from repro.machine.pagetable import PTE
from repro.machine.scheduler import CoreSlot
from repro.obs.tracer import TRACER

#: Concurrent sweeps accumulate about this many cycles of page visits per
#: scheduler yield. Coarser batching means fewer simulation steps; the
#: value stays well under the preemption quantum so interleaving with the
#: application (and STW entry latency) is still fine-grained.
SWEEP_YIELD_CYCLES = 100_000


@dataclass
class PhaseSample:
    """One timed phase of one revocation epoch (fig. 9's unit)."""

    epoch: int
    name: str
    kind: str  # "stw" | "concurrent"
    begin: int
    end: int

    def __post_init__(self) -> None:
        # Phase accounting assumes monotonically increasing begin/end; a
        # negative duration would silently corrupt every downstream STW
        # and concurrent-cycle statistic, so fail loudly instead.
        if self.end < self.begin:
            raise SimulationError(
                f"phase {self.name!r} of epoch {self.epoch} ends at "
                f"{self.end} before it began at {self.begin}"
            )

    @property
    def duration(self) -> int:
        return self.end - self.begin


@dataclass
class EpochRecord:
    """Everything measured about one revocation epoch."""

    epoch: int
    phases: list[PhaseSample] = field(default_factory=list)
    #: Cumulative foreground load-fault handling time (Reloaded; fig. 9's
    #: brown series / fig. 7's dotted segment).
    fault_cycles: int = 0
    fault_count: int = 0
    pages_swept: int = 0
    pages_gen_only: int = 0
    caps_checked: int = 0
    caps_revoked: int = 0
    roots_checked: int = 0
    roots_revoked: int = 0

    def stw_cycles(self) -> int:
        return sum(p.duration for p in self.phases if p.kind == "stw")

    def concurrent_cycles(self) -> int:
        return sum(p.duration for p in self.phases if p.kind == "concurrent")


def _stale_dirty_window(
    pages: list[PTE], start: int, new_lg: int, budget: int, limit: int, cheapest: int, clean: int
) -> tuple[list[PTE], int]:
    """The generation pass's window: the stale capability-dirty pages
    among ``pages[start:]`` that ``budget`` reaches (at most ``limit``),
    counting ``cheapest`` per content visit and ``clean`` per
    generation-only visit; returns them and the index where the reach
    stops."""
    window: list[PTE] = []
    stop, reach = start, 0
    while stop < len(pages) and reach < budget and len(window) < limit:
        pte = pages[stop]
        stop += 1
        if pte.guard or pte.lg == new_lg:
            continue
        if pte.cap_dirty:
            window.append(pte)
            reach += cheapest
        else:
            reach += clean
    return window, stop


class Revoker(abc.ABC):
    """A sweeping revocation strategy (§2.2)."""

    #: Human-readable strategy name (matches the paper's figures).
    name: str = "abstract"
    #: Whether this strategy actually provides temporal safety
    #: ("Paint+sync" does not; §5).
    provides_safety: bool = True

    def __init__(
        self,
        machine: Machine,
        address_space: AddressSpace,
        shadow: RevocationBitmap,
        epoch: EpochClock,
        hoards: KernelHoards,
    ) -> None:
        self.machine = machine
        self.address_space = address_space
        self.shadow = shadow
        self.epoch = epoch
        self.hoards = hoards
        #: User threads' register files, registered by the simulation.
        self.register_files: list[RegisterFile] = []
        self.records: list[EpochRecord] = []
        self.costs = machine.costs
        self._current_record: EpochRecord | None = None

    # --- Epoch protocol helpers -------------------------------------------------

    def _open_epoch(self, slot: CoreSlot) -> EpochRecord:
        self.epoch.begin_revocation()
        self.machine.scheduler.signal(self.epoch.changed, at_time=slot.time)
        record = EpochRecord(epoch=self.epoch.counter)
        self.records.append(record)
        self._current_record = record
        if TRACER.enabled:
            TRACER.emit(
                "epoch.open", ts=slot.time, epoch=record.epoch, revoker=self.name
            )
        # Reset per-epoch sweep bookkeeping (kernel-side software state).
        for pte in self.machine.pagetable.mapped_pages():
            pte.swept_this_epoch = False
            pte.redirtied = False
        return record

    def _close_epoch(self, slot: CoreSlot) -> None:
        record = self._current_record
        self.epoch.end_revocation()
        self.machine.scheduler.signal(self.epoch.changed, at_time=slot.time)
        self._current_record = None
        if TRACER.enabled and record is not None:
            TRACER.emit(
                "epoch.close",
                ts=slot.time,
                epoch=record.epoch,
                pages_swept=record.pages_swept,
                caps_revoked=record.caps_revoked,
            )

    def _phase(self, record: EpochRecord, name: str, kind: str, begin: int, end: int) -> None:
        record.phases.append(
            PhaseSample(epoch=record.epoch, name=name, kind=kind, begin=begin, end=end)
        )
        if TRACER.enabled:
            TRACER.emit(
                "revoker.phase",
                ts=end,
                epoch=record.epoch,
                phase=name,
                kind=kind,
                begin=begin,
                end=end,
            )

    # --- The sweep engine -----------------------------------------------------------

    def sweep_page(
        self,
        core: Core,
        pte: PTE,
        record: EpochRecord,
        *,
        warm_cache: bool = False,
    ) -> int:
        """Sweep one page's contents on ``core``; returns cycles consumed.

        A window of one page through the engine (:meth:`_sweep`).
        Idempotent within an epoch (§4.3): overlapping foreground and
        background visits are safe, they just re-scan.

        Background and world-stopped sweeps stream the page past the cache
        (non-temporal reads, the behaviour §5.6 recommends for page
        scans); a *foreground* fault sweep sets ``warm_cache`` because it
        runs on the application's core and leaves the page's lines behind
        for the application — the cache-warming effect §5.6 observes.
        """
        return sum(self._sweep(core, [pte], record, warm_cache=warm_cache))

    def sweep_pages(
        self,
        core: Core,
        pages: list[PTE],
        record: EpochRecord,
        *,
        extra_per_page: int = 0,
    ) -> Generator:
        """Sweep every page of ``pages``, yielding accumulated cycles in
        :data:`SWEEP_YIELD_CYCLES` batches (the common revoker inner loop;
        ``extra_per_page`` covers per-page PTE bookkeeping). With the world
        stopped nothing else can run, so batching the yields is free — the
        pause ends at the same cycle — and saves one scheduler step per
        page."""
        yield from self._sweep(core, pages, record, extra_per_page=extra_per_page)

    def _sweep(
        self,
        core: Core,
        pages: list[PTE],
        record: EpochRecord,
        *,
        extra_per_page: int = 0,
        new_lg: int | None = None,
        warm_cache: bool = False,
    ) -> Generator:
        """The windowed sweep engine: visit ``pages`` in order on ``core``,
        yielding accumulated cycles in :data:`SWEEP_YIELD_CYCLES` batches.

        Between two yields nothing else runs, so each batch begins by
        scanning a *window* — every page the rest of the batch's budget can
        reach — in one read-only gather (:meth:`_scan_window`). It then
        charges pages in order until the batch crosses the threshold,
        clears the condemned tags of the charged pages only, and yields.
        The rest of the window is dropped: the application may run at the
        yield, so the next batch scans those pages again.

        With ``new_lg`` set this is the generation pass: each page is
        classified when the pass reaches it — a guard or already current
        (skipped), capability-dirty (content sweep) or clean
        (:meth:`gen_only_visit`) — and brought to generation ``new_lg``.
        """
        costs = self.costs
        memory = self.machine.memory
        cache = core.cache
        shadow_addr = self.shadow.shadow_addr_of_granule
        mem_stream = costs.mem_stream
        tag_table_sweep = costs.tag_table_sweep
        lines_per_cap = costs.tag_sweep_lines_per_cap
        # The cheapest content visit: an untagged page, streaming the
        # fewest data lines the sweep can read (the window's size unit).
        least_lines = 1 if tag_table_sweep else LINES_PER_PAGE
        cheapest = costs.page_sweep_cycles(0, 0) + least_lines * mem_stream + extra_per_page
        clean = costs.sweep_clean_page + costs.pte_update + extra_per_page
        batch = 0
        i, n = 0, len(pages)
        while i < n:
            budget = SWEEP_YIELD_CYCLES - batch
            limit = self._window_size(budget, cheapest)
            if new_lg is None:
                stop = min(n, i + limit)
                window = pages[i:stop]
            else:
                window, stop = _stale_dirty_window(pages, i, new_lg, budget, limit, cheapest, clean)
            if window:
                tagged, rows, granules = self._scan_window(memory, [p.vpn for p in window])
                page_tagged = tagged.tolist()
                page_revoked = np.bincount(rows, minlength=len(window)).tolist()
            row = checked = cleared = reads = writes = hits = 0
            last_line = -1
            for pte in pages[i:stop]:
                i += 1
                if new_lg is not None:
                    if pte.guard or pte.lg == new_lg:
                        continue
                    pte.lg = new_lg
                    if not pte.cap_dirty:
                        batch += self.gen_only_visit(pte, record) + extra_per_page
                        if batch >= SWEEP_YIELD_CYCLES:
                            break
                        continue
                    if row == len(window) or pte is not window[row]:
                        scanned = window[row].vpn if row < len(window) else None
                        raise SimulationError(
                            f"sweep charged page {pte.vpn} for window row {row}, "
                            f"which scanned page {scanned}"
                        )
                n_tagged = page_tagged[row]
                revoked = page_revoked[row]
                row += 1
                checked += n_tagged
                cleared += revoked
                if warm_cache:
                    misses = cache.access_page(pte.vpn, write=revoked > 0)
                    last_line = -1
                else:
                    if tag_table_sweep:
                        # §7.5 relaxed tag coherence: consult the
                        # (written-back) tag table first and fetch only the
                        # data lines that hold tags, plus the tag-table
                        # line (one per two pages, charged amortized high).
                        misses = min(LINES_PER_PAGE, n_tagged * lines_per_cap) + 1
                    else:
                        misses = LINES_PER_PAGE
                    reads += misses
                    if revoked:
                        # Revocation dirtied the page: write back the lines
                        # holding the cleared tags (four granules per line).
                        writes += 1 + (revoked - 1) // 4
                # The page's 32 bytes of shadow bitmap: consecutive pages
                # share a shadow line, so a repeat is a hit that leaves the
                # LRU order as it is.
                addr = shadow_addr(pte.vpn * GRANULES_PER_PAGE)
                if addr // LINE_BYTES == last_line:
                    hits += 1
                else:
                    last_line = addr // LINE_BYTES
                    misses += cache.access(addr)
                cycles = costs.page_sweep_cycles(n_tagged, revoked) + misses * mem_stream
                if revoked and not pte.writable:
                    # §4.3: a read-only page is handled as read-only unless
                    # a capability on it must be revoked — then the full
                    # page-fault machinery upgrades it to writable for the
                    # clearing store.
                    cycles += costs.sweep_ro_upgrade
                    pte.writable = True
                pte.swept_this_epoch = True
                pte.redirtied = False
                batch += cycles + extra_per_page
                if batch >= SWEEP_YIELD_CYCLES:
                    break
            # Condemned granules come in row order: the first ``cleared``
            # belong to the charged pages.
            if cleared:
                memory.clear_granules(granules[:cleared])
            if reads:
                core.bus.read(core.name, reads)
            if writes:
                core.bus.write(core.name, writes)
            cache.hits += hits
            record.pages_swept += row
            record.caps_checked += checked
            record.caps_revoked += cleared
            if batch >= SWEEP_YIELD_CYCLES:
                yield batch
                batch = 0
        if batch:
            yield batch

    def _window_size(self, budget: int, cheapest: int) -> int:
        """Pages a batch's remaining ``budget`` can reach when no content
        visit costs less than ``cheapest``: ``ceil(budget / cheapest)``,
        never below 1 (unbounded if visits can be free)."""
        if cheapest <= 0:
            return sys.maxsize
        return max(1, -(-budget // cheapest))

    # The window scan exists twice: the vector scan production runs and
    # the scalar reference model below. Both read memory only and return
    # (tagged, rows, granules): each page's tagged-granule count, and the
    # condemned granules with their window rows in page, then granule,
    # order. tests/test_sweep_equivalence.py swaps the reference in and
    # pins the equivalence on full fixed-seed runs.

    def _scan_window(self, memory, vpns: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vector scan: gather every tagged granule of the window and
        probe all their capability bases in one vector op."""
        rows, granules, bases = memory.gather_tagged(vpns)
        condemned = self.shadow.probe_bases(bases)
        return np.bincount(rows, minlength=len(vpns)), rows[condemned], granules[condemned]

    def _scan_window_scalar(self, memory, vpns: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference scan: probe each tagged granule's base one at a time."""
        tagged, rows, granules = [], [], []
        for row, vpn in enumerate(vpns):
            page = memory.tagged_granules_in_page(vpn)
            tagged.append(len(page))
            for granule in page:
                if self.shadow.is_revoked(memory.cap_at_granule(granule)):
                    rows.append(row)
                    granules.append(granule)
        return (
            np.array(tagged, dtype=np.intp),
            np.array(rows, dtype=np.intp),
            np.array(granules, dtype=np.intp),
        )

    def gen_only_visit(self, pte: PTE, record: EpochRecord) -> int:
        """Update a capability-clean page's generation without reading its
        contents (§4.1 fn. 19); returns cycles consumed."""
        pte.swept_this_epoch = True
        pte.redirtied = False
        record.pages_gen_only += 1
        return self.costs.sweep_clean_page + self.costs.pte_update

    # --- Capability roots (registers + kernel hoards, §4.4) -------------------------

    def scan_roots(self, record: EpochRecord) -> tuple[int, ScanOutcome]:
        """Scan every register file and kernel hoard with the world
        stopped; returns (cycles, outcome)."""
        outcome = ScanOutcome()
        registers = 0
        for rf in self.register_files:
            registers += len(rf)
            outcome.merge(rf.scan(self.shadow))
        hoarded = self.hoards.total_caps()
        outcome.merge(self.hoards.scan(self.shadow))
        cycles = (
            registers * self.costs.stw_per_register
            + hoarded * self.costs.stw_per_hoarded_cap
        )
        record.roots_checked += outcome.checked
        record.roots_revoked += outcome.revoked
        return cycles, outcome

    def stw_entry_cycles(self) -> int:
        """Cost of quiescing the process (thread_single; §4.4, §5.4)."""
        extra = max(0, len(self.register_files) - 1)
        return self.costs.stw_base + extra * self.costs.stw_per_extra_thread

    # --- Foreground fault handling ----------------------------------------------------

    def handle_lg_fault(self, core: Core, vpn: int) -> int:
        """Handle a capability load-generation fault. Only Reloaded takes
        these; other strategies never flip generations."""
        raise NotImplementedError(
            f"{self.name} does not use capability load barriers"
        )

    # --- Strategy ---------------------------------------------------------------------

    @abc.abstractmethod
    def revoke(self, core: Core, slot: CoreSlot) -> Generator:
        """One full revocation epoch, run on the controller thread."""

    # --- Aggregate reporting -------------------------------------------------------------

    def total_stw_cycles(self) -> int:
        return sum(r.stw_cycles() for r in self.records)

    def total_fault_cycles(self) -> int:
        return sum(r.fault_cycles for r in self.records)

    def total_pages_swept(self) -> int:
        return sum(r.pages_swept for r in self.records)

    def total_caps_revoked(self) -> int:
        return sum(r.caps_revoked for r in self.records)
