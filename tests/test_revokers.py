"""Unit tests for the three revocation strategies (plus paint+sync).

Each test builds a small kernel, plants capabilities (live and
condemned), runs one revocation epoch on a controller thread, and checks
the paper's guarantee (§2.2.3): every capability whose base was painted
before the epoch began is gone from memory, register files, and kernel
hoards by the epoch's end — and nothing else was touched.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.kernel.hoards import RegisterFile
from repro.kernel.kernel import Kernel
from repro.kernel.revoker import (
    CheriVokeRevoker,
    CornucopiaRevoker,
    PaintSyncRevoker,
    ReloadedRevoker,
    base,
)
from repro.kernel.revoker.base import SWEEP_YIELD_CYCLES
from repro.machine.capability import Capability
from repro.machine.costs import PAGE_BYTES
from repro.machine.machine import Machine
from repro.machine.trap import LoadGenerationFault

SAFETY_REVOKERS = [CheriVokeRevoker, CornucopiaRevoker, ReloadedRevoker]
ALL_REVOKERS = SAFETY_REVOKERS + [PaintSyncRevoker]


class Rig:
    """A machine + kernel + one mapped region with planted capabilities."""

    def __init__(self, revoker_cls, heap_bytes: int = 64 << 10):
        self.machine = Machine(memory_bytes=8 << 20)
        self.kernel = Kernel(self.machine)
        self.revoker = self.kernel.install_revoker(revoker_cls)
        self.heap, _ = self.kernel.address_space.mmap(heap_bytes)
        self.core_app = self.machine.cores[3]
        self.core_rev = self.machine.cores[2]

    def plant(self, slot_off: int, target_base: int, target_len: int = 64) -> Capability:
        """Store a capability to [target_base, +len) at heap+slot_off."""
        target = self.heap.derive(target_base, target_len)
        dst = self.heap.with_address(self.heap.base + slot_off)
        self.core_app.store_cap(dst, target)
        return target

    def condemn(self, base: int, length: int = 64) -> None:
        self.kernel.shadow.paint(base, length)

    def run_epoch(self) -> None:
        sched = self.machine.scheduler
        slot = sched.cores[2]
        t = sched.spawn(
            "controller",
            self.revoker.revoke(self.core_rev, slot),
            2,
            stops_for_stw=False,
        )
        sched.run(until=[t])

    def loaded(self, slot_off: int) -> Capability | None:
        src = self.heap.with_address(self.heap.base + slot_off)
        while True:
            try:
                return self.core_app.load_cap(src).value
            except LoadGenerationFault as fault:
                self.kernel.handle_lg_fault(self.core_app, fault)


@pytest.mark.parametrize("revoker_cls", SAFETY_REVOKERS)
class TestRevocationGuarantee:
    def test_condemned_cap_removed_from_memory(self, revoker_cls):
        rig = Rig(revoker_cls)
        victim = rig.plant(0, rig.heap.base + 0x1000)
        rig.condemn(victim.base)
        rig.run_epoch()
        assert rig.loaded(0) is None

    def test_live_cap_survives(self, revoker_cls):
        rig = Rig(revoker_cls)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.plant(16, rig.heap.base + 0x2000)
        rig.condemn(rig.heap.base + 0x1000)
        rig.run_epoch()
        assert rig.loaded(0) is None
        survivor = rig.loaded(16)
        assert survivor is not None and survivor.tag

    def test_register_file_scanned(self, revoker_cls):
        rig = Rig(revoker_cls)
        rf = RegisterFile()
        rig.revoker.register_files.append(rf)
        victim = rig.heap.derive(rig.heap.base + 0x1000, 64)
        rf.set(0, victim)
        rig.condemn(victim.base)
        rig.run_epoch()
        assert not rf.get(0).tag

    def test_kernel_hoard_scanned(self, revoker_cls):
        rig = Rig(revoker_cls)
        victim = rig.heap.derive(rig.heap.base + 0x1000, 64)
        ticket = rig.kernel.hoards.stash("aio", victim)
        rig.condemn(victim.base)
        rig.run_epoch()
        assert not rig.kernel.hoards.retrieve("aio", ticket).tag

    def test_derived_capability_revoked_with_parent(self, revoker_cls):
        rig = Rig(revoker_cls)
        parent_base = rig.heap.base + 0x1000
        child = rig.heap.derive(parent_base + 16, 32)
        dst = rig.heap.with_address(rig.heap.base + 64)
        rig.core_app.store_cap(dst, child)
        rig.condemn(parent_base, 64)
        rig.run_epoch()
        assert rig.loaded(64) is None

    def test_epoch_counter_advances_by_two(self, revoker_cls):
        rig = Rig(revoker_cls)
        before = rig.kernel.epoch.read()
        rig.run_epoch()
        assert rig.kernel.epoch.read() == before + 2
        assert not rig.kernel.epoch.revoking

    def test_epoch_record_collected(self, revoker_cls):
        rig = Rig(revoker_cls)
        victim = rig.plant(0, rig.heap.base + 0x1000)
        rig.condemn(victim.base)
        rig.run_epoch()
        assert len(rig.revoker.records) == 1
        record = rig.revoker.records[0]
        assert record.caps_revoked >= 1
        assert record.pages_swept >= 1
        assert record.phases

    def test_second_epoch_idempotent(self, revoker_cls):
        rig = Rig(revoker_cls)
        victim = rig.plant(0, rig.heap.base + 0x1000)
        rig.condemn(victim.base)
        rig.run_epoch()
        rig.run_epoch()
        assert rig.kernel.epoch.completed == 2
        assert rig.loaded(0) is None


class TestStrategySpecifics:
    def test_cherivoke_single_stw_phase(self):
        rig = Rig(CheriVokeRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        kinds = [p.kind for p in rig.revoker.records[0].phases]
        assert kinds == ["stw"]

    def test_cornucopia_concurrent_then_stw(self):
        rig = Rig(CornucopiaRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        kinds = [p.kind for p in rig.revoker.records[0].phases]
        assert kinds == ["concurrent", "stw"]

    def test_reloaded_stw_then_concurrent(self):
        rig = Rig(ReloadedRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        kinds = [p.kind for p in rig.revoker.records[0].phases]
        assert kinds == ["stw", "concurrent"]

    def test_reloaded_stw_far_shorter_than_cherivoke(self):
        """The headline claim: Reloaded's pause does not scale with heap."""
        durations = {}
        for cls in (CheriVokeRevoker, ReloadedRevoker):
            rig = Rig(cls, heap_bytes=2 << 20)
            # A heap with many capability-dirty pages.
            for off in range(0, 2 << 20, 512):
                rig.plant(off, rig.heap.base + 0x1000)
            rig.run_epoch()
            durations[cls.name] = rig.machine.scheduler.stw_records[0].duration
        assert durations["reloaded"] * 5 < durations["cherivoke"]

    def test_reloaded_flips_all_core_generations(self):
        rig = Rig(ReloadedRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        assert all(c.clg == 1 for c in rig.machine.cores)
        assert rig.kernel.address_space.current_lg == 1

    def test_reloaded_updates_all_ptes_by_epoch_end(self):
        rig = Rig(ReloadedRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        for pte in rig.machine.pagetable.mapped_pages():
            assert pte.lg == 1

    def test_reloaded_foreground_fault_heals_page(self):
        rig = Rig(ReloadedRevoker)
        victim = rig.plant(0, rig.heap.base + 0x1000)
        rig.condemn(victim.base)
        # Manually enter the epoch's post-STW state: flip generations but
        # run no background work yet.
        rig.revoker._open_epoch(rig.machine.scheduler.cores[2])
        for c in rig.machine.cores:
            c.flip_clg()
        rig.revoker.current_lg = 1
        # The app load takes a fault; the handler sweeps and the retry
        # sees the revoked (untagged) slot.
        assert rig.loaded(0) is None
        assert rig.revoker.foreground_faults == 1
        vpn = rig.heap.base // 4096
        assert rig.machine.pagetable.require(vpn).lg == 1

    def test_reloaded_spurious_fault_resolved_by_tlb_refill(self):
        rig = Rig(ReloadedRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.core_app.load_cap(rig.heap.with_address(rig.heap.base))  # warm TLB
        # Heal the PTE as the background pass would, leaving the TLB stale.
        pte = rig.machine.pagetable.require(rig.heap.base // 4096)
        for c in rig.machine.cores:
            c.flip_clg()
        pte.lg = 1
        assert rig.loaded(0) is not None
        assert rig.revoker.spurious_faults == 1

    def test_cornucopia_resweeps_redirtied_pages(self):
        rig = Rig(CornucopiaRevoker)
        rig.plant(0, rig.heap.base + 0x1000)
        rig.run_epoch()
        record = rig.revoker.records[0]
        # No stores happened during the epoch, so nothing was re-swept:
        # pages_swept equals the dirty-page count exactly once each.
        dirty = len(rig.machine.pagetable.cap_dirty_pages())
        assert record.pages_swept == dirty

    def test_paint_sync_provides_no_safety(self):
        rig = Rig(PaintSyncRevoker)
        victim = rig.plant(0, rig.heap.base + 0x1000)
        rig.condemn(victim.base)
        rig.run_epoch()
        # Epoch ticked, but the condemned capability is still loadable.
        assert rig.kernel.epoch.completed == 1
        assert rig.loaded(0) is not None
        assert not rig.revoker.provides_safety

    def test_non_reloaded_revokers_reject_lg_faults(self):
        rig = Rig(CornucopiaRevoker)
        with pytest.raises(NotImplementedError):
            rig.revoker.handle_lg_fault(rig.core_app, 1)

    def test_reloaded_gen_only_visit_for_clean_pages(self):
        rig = Rig(ReloadedRevoker)
        rig.plant(0, rig.heap.base + 0x1000)  # dirties one page
        rig.run_epoch()
        record = rig.revoker.records[0]
        # The heap spans multiple pages; only the dirty one needed a
        # content sweep, the rest got cheap generation-only visits.
        assert record.pages_gen_only > 0
        assert record.pages_swept >= 1
        assert record.pages_gen_only + record.pages_swept >= len(
            list(rig.machine.pagetable.mapped_pages())
        )


class TestReadOnlyPages:
    """§4.3: sweeps avoid converting read-only pages to read-write unless
    a capability on them must actually be revoked."""

    def _rig_with_ro_page(self):
        rig = Rig(ReloadedRevoker)
        # A read-only mapping holding one capability (e.g. a relocated
        # constant table): map writable, plant, then drop write access.
        ro_cap, res = rig.kernel.address_space.mmap(4096)
        rig.core_app.store_cap(ro_cap, rig.heap.derive(rig.heap.base + 0x1000, 64))
        pte = rig.machine.pagetable.require(res.start_vpn)
        pte.writable = False
        return rig, ro_cap, pte

    def test_clean_ro_page_stays_read_only(self):
        rig, ro_cap, pte = self._rig_with_ro_page()
        rig.run_epoch()  # nothing condemned: read-only scan suffices
        assert not pte.writable

    def test_ro_page_upgraded_only_to_revoke(self):
        rig, ro_cap, pte = self._rig_with_ro_page()
        rig.condemn(rig.heap.base + 0x1000)
        rig.run_epoch()
        assert pte.writable  # the page-fault machinery upgraded it
        assert rig.machine.memory.load_cap(ro_cap.base) is None

    def test_upgrade_costs_more(self):
        cheap, dear = [], []
        for condemn in (False, True):
            rig, ro_cap, pte = self._rig_with_ro_page()
            if condemn:
                rig.condemn(rig.heap.base + 0x1000)
            record = rig.revoker._open_epoch(rig.machine.scheduler.cores[2])
            cycles = rig.revoker.sweep_page(rig.core_rev, pte, record)
            (dear if condemn else cheap).append(cycles)
            rig.kernel.epoch.end_revocation()
        assert dear[0] > cheap[0]


class TestSweepWindows:
    """The engine scans a window of pages per yield-batch; the scan must
    never outlive the yield that ends its batch."""

    def test_window_never_outlives_a_yield(self):
        pages = 96
        rig = Rig(CornucopiaRevoker, heap_bytes=pages * PAGE_BYTES)
        heap = rig.heap.base
        # One capability per page makes every page cap-dirty; every
        # fourth one points at a condemned target.
        condemned = 0
        for page in range(pages):
            target = rig.plant(page * PAGE_BYTES, heap + page * PAGE_BYTES + 2048)
            if page % 4 == 0:
                rig.condemn(target.base)
                condemned += 1
        stored_at, overwritten_at = 90 * PAGE_BYTES + 16, 80 * PAGE_BYTES
        assert rig.machine.memory.load_cap(heap + overwritten_at) is not None
        seen = []

        def app():
            # Poll until the sweep's first batch has been charged, then
            # change two pages it has not reached before its next batch.
            record = None
            while record is None or record.pages_swept == 0:
                yield 1_000
                record = rig.revoker._current_record
            seen.append(record.pages_swept)
            doomed = rig.heap.derive(heap + 2048, 64)
            yield rig.core_app.store_cap(rig.heap.with_address(heap + stored_at), doomed).cycles
            yield rig.core_app.store_data(rig.heap.with_address(heap + overwritten_at), 16).cycles

        sched = rig.machine.scheduler
        sched.spawn("app", app(), 3)
        controller = sched.spawn(
            "controller", rig.revoker.revoke(rig.core_rev, sched.cores[2]), 2, stops_for_stw=False
        )
        sched.run(until=[controller])

        record = rig.revoker.records[-1]
        (concurrent,) = [p for p in record.phases if p.kind == "concurrent"]
        assert concurrent.duration > 2 * SWEEP_YIELD_CYCLES
        # The app acted between the first and second yield, on pages the
        # sweep had not reached.
        assert seen and 0 < seen[0] < 80
        assert rig.machine.memory.load_cap(heap + stored_at) is None
        assert rig.machine.memory.load_cap(heap + PAGE_BYTES) is not None
        # Counted when charged: the stored capability, not the overwritten one.
        assert record.caps_revoked == condemned - 1 + 1

    def test_generation_pass_refuses_a_page_it_did_not_scan(self, monkeypatch):
        rig = Rig(ReloadedRevoker)
        for page in range(3):
            rig.plant(page * PAGE_BYTES, rig.heap.base + 0x1000)
        scan = base._stale_dirty_window

        def skewed(pages, start, *args):
            window, stop = scan(pages, start, *args)
            return window[1:], stop

        monkeypatch.setattr(base, "_stale_dirty_window", skewed)
        with pytest.raises(SimulationError, match="which scanned page"):
            rig.run_epoch()
