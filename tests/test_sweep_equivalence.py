"""The vectorized/scalar equivalence suite.

The sweep engine scans a window of pages per yield-batch in one numpy
gather. These tests pin it against two references, each selected by a
patch that covers foreground and background sweeps alike:

- the scalar reference model: ``Revoker._scan_window`` and
  ``Cache._touch_span`` patched back onto their reference loops
  (``Revoker._scan_window_scalar``, ``Cache._touch_loop``);
- windows forced to one page (``Revoker._window_size`` patched to 1),
  so every page is scanned just before it is charged.

The contract is that each is *bit-identical*, not merely close: a
fixed-seed run of every revocation strategy must produce the same
:class:`~repro.core.metrics.RunResult` down to individual bus counters,
wall cycles, pause lists, and per-epoch sweep statistics.

Any divergence here means the fast path changed simulated behaviour, not
just simulation speed — which would silently invalidate every figure.
"""

from __future__ import annotations

import pytest

from repro.alloc.quarantine import QuarantinePolicy
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.extensions.multithread_revoker import MultithreadReloadedRevoker
from repro.kernel.revoker.base import Revoker
from repro.machine.cache import Cache
from repro.workloads.churn import ChurnProfile, ChurnWorkload, SizeMix

ALL_FOUR = [
    RevokerKind.PAINT_SYNC,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
]


def _profile(seed: int) -> ChurnProfile:
    """Small but non-trivial: with the lowered quarantine trigger of
    :func:`_run`, enough churn for several revocation epochs,
    pointer-bearing pages for the sweeps to scan, and foreground faults
    for Reloaded's load barrier."""
    return ChurnProfile(
        name="equivalence",
        heap_bytes=96 << 10,
        churn_bytes=256 << 10,
        size_mix=SizeMix((64, 256, 1024), (4.0, 2.0, 1.0)),
        pointer_slots=2,
        seed=seed,
    )


def _use_scalar_reference(monkeypatch) -> None:
    monkeypatch.setattr(Revoker, "_scan_window", Revoker._scan_window_scalar)
    monkeypatch.setattr(Cache, "_touch_span", Cache._touch_loop)


def _use_one_page_windows(monkeypatch) -> None:
    monkeypatch.setattr(Revoker, "_window_size", lambda self, budget, cheapest: 1)


def _config(kind: RevokerKind, custom: type | None = None) -> SimulationConfig:
    # The default trigger (8 MiB of quarantine) is never reached by this
    # small profile; at 32 KiB every strategy runs 10+ epochs.
    return SimulationConfig(
        revoker=kind, policy=QuarantinePolicy(min_bytes=32 << 10), custom_revoker=custom
    )


def _run(kind: RevokerKind, seed: int, custom: type | None = None):
    return Simulation(ChurnWorkload(_profile(seed)), _config(kind, custom)).run()


def _fingerprint(result) -> dict:
    """Every metric the paper's figures read, in comparable form."""
    return {
        "wall_cycles": result.wall_cycles,
        "app_cpu_cycles": result.app_cpu_cycles,
        "cpu_cycles_by_core": result.cpu_cycles_by_core,
        "bus_by_source": result.bus_by_source,
        "peak_rss_bytes": result.peak_rss_bytes,
        "stw_pauses": result.stw_pauses,
        "revocations": result.revocations,
        "caps_revoked": result.caps_revoked,
        "pages_swept": result.pages_swept,
        "foreground_faults": result.foreground_faults,
        "spurious_faults": result.spurious_faults,
        "epochs": [
            (
                r.epoch,
                r.pages_swept,
                r.pages_gen_only,
                r.caps_checked,
                r.caps_revoked,
                r.fault_cycles,
                r.fault_count,
                r.stw_cycles(),
                r.concurrent_cycles(),
            )
            for r in result.epoch_records
        ],
    }


@pytest.mark.parametrize("kind", ALL_FOUR, ids=[k.value for k in ALL_FOUR])
def test_vectorized_matches_scalar_reference(kind, monkeypatch):
    vector = _fingerprint(_run(kind, seed=7))
    assert vector["revocations"] > 0
    _use_scalar_reference(monkeypatch)
    scalar = _fingerprint(_run(kind, seed=7))
    assert vector == scalar


# reloaded-mt's default places both background stripes on the
# controller's core, so their windows interleave on one cache.
WINDOWED = [(kind, None) for kind in ALL_FOUR] + [
    (RevokerKind.RELOADED, MultithreadReloadedRevoker)
]


@pytest.mark.parametrize(
    "kind, custom", WINDOWED, ids=[k.value for k in ALL_FOUR] + ["reloaded-mt"]
)
def test_one_page_windows_match(kind, custom, monkeypatch):
    windowed = _fingerprint(_run(kind, seed=7, custom=custom))
    assert windowed["revocations"] > 0
    _use_one_page_windows(monkeypatch)
    assert windowed == _fingerprint(_run(kind, seed=7, custom=custom))


def test_vectorized_revocation_state_matches(monkeypatch):
    """Beyond the metrics: the surviving capability population after a
    run must be identical (same granules, same bases)."""

    def tagged_population():
        sim = Simulation(
            ChurnWorkload(_profile(seed=11)), _config(RevokerKind.RELOADED)
        )
        assert sim.run().caps_revoked > 0
        return sorted(
            (g, cap.base, cap.length)
            for g, cap in sim.machine.memory.iter_tagged()
        )

    vector = tagged_population()
    _use_scalar_reference(monkeypatch)
    assert vector == tagged_population()
