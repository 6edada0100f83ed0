"""Shared revocation machinery: the page sweep, capability-root scans,
and per-epoch phase timing records.

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

The granule scan runs vectorized by default (one numpy gather of the
page's tagged bases against the shadow bitmap, one masked store to clear
revoked tags — what a hardware sweep engine would pipeline); the original
per-granule loop remains as the reference model
(:meth:`Revoker._scan_page_scalar`) that tests/test_sweep_equivalence.py
pins the vector scan against.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Generator, Iterable

import numpy as np

from repro.errors import SimulationError
from repro.kernel.epoch import EpochClock
from repro.kernel.hoards import KernelHoards, RegisterFile, ScanOutcome
from repro.kernel.shadow import RevocationBitmap
from repro.kernel.vm import AddressSpace
from repro.machine.costs import LINES_PER_PAGE
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

    # --- The sweep ----------------------------------------------------------------

    def sweep_page(
        self,
        core: Core,
        pte: PTE,
        record: EpochRecord,
        *,
        warm_cache: bool = False,
    ) -> int:
        """Sweep one page's contents on ``core``; returns cycles consumed.

        Idempotent within an epoch (§4.3): overlapping foreground and
        background visits are safe, they just re-scan.

        Background and world-stopped sweeps stream the page past the cache
        (non-temporal reads, the behaviour §5.6 recommends for page
        scans); a *foreground* fault sweep sets ``warm_cache`` because it
        runs on the application's core and leaves the page's lines behind
        for the application — the cache-warming effect §5.6 observes.
        """
        memory = self.machine.memory
        n_tagged, revoked = self._scan_page_vector(memory, pte.vpn)
        if warm_cache:
            misses = core.cache.access_page(pte.vpn, write=revoked > 0)
        elif self.costs.tag_table_sweep:
            # §7.5 relaxed tag coherence: consult the (written-back) tag
            # table first and fetch only the data lines that hold tags.
            # A page's tags are 32 bytes of tag table: about one line per
            # two pages, charged via shadow-style amortized access below.
            data_lines = min(
                LINES_PER_PAGE, n_tagged * self.costs.tag_sweep_lines_per_cap
            )
            misses = data_lines + 1  # + the tag-table line (amortized high)
            core.bus.read(core.name, misses)
            if revoked:
                core.bus.write(core.name, 1 + (revoked - 1) // 4)
        else:
            misses = LINES_PER_PAGE
            core.bus.read(core.name, LINES_PER_PAGE)
            if revoked:
                # Revocation dirtied the page: write back the lines holding
                # the cleared tags (16 granules per line).
                core.bus.write(core.name, 1 + (revoked - 1) // 4)
        # The page's 32 bytes of shadow bitmap stay cache-resident across
        # consecutive pages (16 heap pages share a shadow line).
        g0, _ = memory.page_granule_range(pte.vpn)
        shadow_addr = self.shadow.shadow_addr_of_granule(g0)
        misses += core.cache.access_range(shadow_addr, 32)
        cycles = (
            self.costs.page_sweep_cycles(n_tagged, revoked)
            + misses * self.costs.mem_stream
        )
        if revoked and not pte.writable:
            # §4.3: a read-only page is handled as read-only unless a
            # capability on it must be revoked — then the full page-fault
            # machinery upgrades it to writable for the clearing store.
            cycles += self.costs.sweep_ro_upgrade
            pte.writable = True
        pte.swept_this_epoch = True
        pte.redirtied = False
        record.pages_swept += 1
        record.caps_checked += n_tagged
        record.caps_revoked += revoked
        return cycles

    # The granule scan exists twice: the scalar reference model below and
    # the vectorized scan production runs. Both return (tagged, revoked)
    # counts and leave memory in the same state;
    # tests/test_sweep_equivalence.py swaps the reference in for the
    # vector scan and pins the equivalence on full fixed-seed runs.

    def _scan_page_scalar(self, memory, vpn: int) -> tuple[int, int]:
        """Reference scan: probe each tagged granule's base one at a time."""
        tagged = memory.tagged_granules_in_page(vpn)
        revoked = 0
        for granule in tagged:
            cap = memory.cap_at_granule(granule)
            if self.shadow.is_revoked(cap):
                memory.clear_tag_at_granule(granule)
                revoked += 1
        return len(tagged), revoked

    def _scan_page_vector(self, memory, vpn: int) -> tuple[int, int]:
        """Vector scan: gather every tagged granule's capability base,
        probe the shadow bitmap in one vector op, clear revoked tags as
        one masked store."""
        tags, bases = memory.page_tag_arrays(vpn)
        idx = np.flatnonzero(tags)
        if not idx.size:
            return 0, 0
        condemned = self.shadow.probe_bases(bases[idx])
        revoked = int(np.count_nonzero(condemned))
        if revoked:
            g0, _ = memory.page_granule_range(vpn)
            memory.clear_granules(idx[condemned] + g0)
        return int(idx.size), revoked

    def sweep_pages(
        self,
        core: Core,
        pages: Iterable[PTE],
        record: EpochRecord,
        *,
        extra_per_page: int = 0,
    ) -> Generator:
        """Sweep ``pages``, yielding accumulated cycles in
        :data:`SWEEP_YIELD_CYCLES` batches (the common revoker inner
        loop; ``extra_per_page`` covers per-page PTE bookkeeping). With
        the world stopped nothing else can run, so batching the yields is
        free — the pause ends at the same cycle — and saves one scheduler
        step per page."""
        batch = 0
        for pte in pages:
            batch += self.sweep_page(core, pte, record) + extra_per_page
            if batch >= SWEEP_YIELD_CYCLES:
                yield batch
                batch = 0
        if batch:
            yield batch

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
