"""Fault injection: prove the safety oracle actually detects breakage.

A test suite asserting "no violations" is only as good as its oracle.
These tests deliberately break each piece of a revoker — skip the
register scan, skip the kernel-hoard scan, skip pages during the sweep,
release quarantine too early — and assert that the invariant checker
(and/or the adversarial workload) *catches* the breakage. If one of
these tests ever passes silently, the oracle has gone blind.
"""

from __future__ import annotations

from typing import Generator

import pytest

from repro.alloc.quarantine import QuarantinePolicy
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.core.validate import check_invariants
from repro.kernel.revoker.base import EpochRecord
from repro.kernel.revoker.reloaded import ReloadedRevoker
from repro.machine.cpu import Core
from repro.machine.scheduler import CoreSlot
from repro.workloads.adversarial import UafAttacker
from repro.workloads.churn import ChurnProfile, ChurnWorkload, SizeMix


class NoRootScanRevoker(ReloadedRevoker):
    """Reloaded with the STW capability-root scan disabled (§3.2's 'little
    subtlety' ignored): register files and kernel hoards keep revoked
    capabilities."""

    name = "broken-no-roots"

    def scan_roots(self, record: EpochRecord):
        from repro.kernel.hoards import ScanOutcome

        return 0, ScanOutcome()


class SkipsPagesRevoker(ReloadedRevoker):
    """Reloaded whose sweep skips every other dirty page it scans."""

    name = "broken-skips-pages"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._scanned = 0

    def _scan_window(self, memory, vpns):
        # Pretend to sweep every other page: its condemned granules drop
        # out of the scan result, so the engine charges the page and
        # updates its bookkeeping without clearing them.
        tagged, rows, granules = super()._scan_window(memory, vpns)
        kept = (rows + self._scanned) % 2 == 0
        self._scanned += len(vpns)
        return tagged, rows[kept], granules[kept]


def run_attack(revoker_cls) -> tuple[UafAttacker, Simulation]:
    w = UafAttacker(rounds=12, churn_objects=80)
    cfg = SimulationConfig(revoker=RevokerKind.RELOADED, custom_revoker=revoker_cls)
    sim = Simulation(w, cfg)
    sim.run()
    return w, sim


def run_churn(revoker_cls) -> Simulation:
    profile = ChurnProfile(
        name="fi",
        heap_bytes=64 << 10,
        churn_bytes=384 << 10,
        size_mix=SizeMix((64, 256, 1024), (0.5, 0.3, 0.2)),
        pointer_slots=2,
        seed=5,
    )
    w = ChurnWorkload(profile, QuarantinePolicy(min_bytes=16 << 10))
    cfg = SimulationConfig(revoker=RevokerKind.RELOADED, custom_revoker=revoker_cls)
    sim = Simulation(w, cfg)
    sim.run()
    return sim


class TestOracleSensitivity:
    def test_intact_revoker_passes_checker(self):
        sim = run_churn(None)
        check_invariants(sim).raise_if_failed()

    def test_intact_revoker_defeats_attacker(self):
        w, sim = run_attack(None)
        assert w.report.uar_hits == 0
        check_invariants(sim).raise_if_failed()

    def test_skipping_root_scan_is_detected(self):
        """Without the STW root scan, revoked capabilities survive in
        registers and kernel hoards — the checker must see them."""
        w, sim = run_attack(NoRootScanRevoker)
        report = check_invariants(sim)
        assert not report.ok
        assert any(v.invariant == "revocation-guarantee" for v in report.violations)
        assert any("register" in v.detail or "hoard" in v.detail
                   for v in report.violations)

    def test_skipping_root_scan_enables_uar(self):
        """The attacker's register/hoard copies become live UAR."""
        w, _ = run_attack(NoRootScanRevoker)
        assert w.report.uar_hits > 0
        assert set(w.report.stale_sources) <= {"register", "kernel-hoard"}

    def test_skipping_pages_is_detected(self):
        sim = run_churn(SkipsPagesRevoker)
        report = check_invariants(sim)
        assert not report.ok
        assert any(v.invariant == "revocation-guarantee" for v in report.violations)

    def test_skipping_pages_enables_uar(self):
        w, _ = run_attack(SkipsPagesRevoker)
        assert w.report.uar_hits > 0
        assert "heap" in w.report.stale_sources


class TestCheckerUnits:
    def test_detects_painted_live_allocation(self):
        sim = run_churn(None)
        # Corrupt the state: paint a live allocation.
        addr = next(iter(sim.alloc._live))
        sim.kernel.shadow.paint(addr, 16)
        report = check_invariants(sim)
        assert any(v.invariant == "live-unpainted" for v in report.violations)

    def test_detects_epoch_desync(self):
        sim = run_churn(None)
        # Corrupt the completion count (the counter itself cannot be made
        # inconsistent in isolation: parity *defines* the in-flight flag).
        sim.kernel.epoch.completed += 1
        report = check_invariants(sim)
        assert any(v.invariant == "epoch-discipline" for v in report.violations)

    def test_detects_quarantine_desync(self):
        sim = run_churn(None)
        if sim.mrs.quarantine.pending:
            sim.mrs.quarantine.pending_bytes += 16  # corrupt
            report = check_invariants(sim)
            assert any(
                v.invariant == "quarantine-accounting" for v in report.violations
            )

    def test_raise_if_failed(self):
        sim = run_churn(None)
        sim.kernel.epoch.completed += 1
        with pytest.raises(AssertionError, match="epoch-discipline"):
            check_invariants(sim).raise_if_failed()
