"""Property tests for the checkpoint determinism contract.

For randomly drawn churn schedules (scale, seed) and every revoker:
checkpoint → restore → run must equal the straight-through run
bit-for-bit on the ``result_to_dict`` surface, and restoring the same
blob twice must give the same answer both times. This is the contract
the runner's resume path and the serve warm-start both lean on.

Warm-start prefix sharing (docs/WARMSTART.md) extends it: for an
arbitrary divergence epoch, a run forked from a stored prefix must be
bit-identical to the cold run — at epoch 0 for *all four* revoking
strategies off one blob — and two jobs sharing a prefix must never
double-capture it.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.runner.serialize import result_to_dict
from repro.snapshot import (
    SnapshotPlan,
    SnapshotSession,
    fork_simulation,
    prefix_plan,
    restore_simulation,
)
from repro.workloads import spec

MEMORY_BYTES = 16 << 20

ALL_KINDS = (
    RevokerKind.NONE,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
    RevokerKind.PAINT_SYNC,
)


def _build(kind: RevokerKind, scale: int, seed: int) -> Simulation:
    workload = spec.workload("hmmer", "retro", scale=scale, seed=seed)
    cfg = SimulationConfig(revoker=kind)
    cfg.machine.memory_bytes = MEMORY_BYTES
    return Simulation(workload, cfg)


def _plan(kind: RevokerKind) -> SnapshotPlan:
    # The NONE revoker has no epochs; use a check cadence well under the
    # smallest schedule length so at least one capture fires.
    if kind is RevokerKind.NONE:
        return SnapshotPlan(every_checks=8)
    return SnapshotPlan(every_epochs=1)


SCALES = st.integers(min_value=1024, max_value=8192)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _check_restore_resume(kind, scale, seed):
    straight_sim = _build(kind, scale, seed)
    straight = result_to_dict(straight_sim.run(snapshots=_plan(kind)))
    session = straight_sim._snapshots
    # Tiny schedules can finish before the first epoch closes; the
    # contract is then vacuous for this example.
    if not session.captured:
        return
    for blob in session.captured:
        once, _ = restore_simulation(blob)
        twice, _ = restore_simulation(blob)
        first = result_to_dict(once.resume())
        second = result_to_dict(twice.resume())
        assert first == straight
        assert second == first


# Tier-1 draws 2 schedules per revoker: the golden corpus already pins
# snapshot-resume on fixed seeds there. The ``full`` variant below draws
# 8; tier-1 deselects it and a CI job runs it on every push.
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scale=SCALES, seed=SEEDS)
def test_restore_resume_matches_straight_run(kind, scale, seed):
    _check_restore_resume(kind, scale, seed)


@pytest.mark.full
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scale=SCALES, seed=SEEDS)
def test_restore_resume_full_budget(kind, scale, seed):
    _check_restore_resume(kind, scale, seed)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_snapshots_never_perturb_the_result(seed):
    plain = result_to_dict(_build(RevokerKind.RELOADED, 4096, seed).run())
    snapped_sim = _build(RevokerKind.RELOADED, 4096, seed)
    snapped = result_to_dict(
        snapped_sim.run(snapshots=SnapshotPlan(every_epochs=1))
    )
    assert snapped == plain


REVOKING = tuple(k for k in ALL_KINDS if k is not RevokerKind.NONE)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scale=st.integers(min_value=1024, max_value=8192),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    epoch=st.integers(min_value=0, max_value=2),
)
def test_warm_started_runs_match_cold_for_every_revoker(scale, seed, epoch):
    leader = _build(RevokerKind.PAINT_SYNC, scale, seed)
    session = SnapshotSession(leader, prefix_plan(epoch))
    leader_result = result_to_dict(leader.run(snapshots=session))
    # Prefix capture must not perturb the capturing run itself.
    assert leader_result == result_to_dict(
        _build(RevokerKind.PAINT_SYNC, scale, seed).run()
    )
    # The capture window can close before any quiescent poll (tiny
    # schedules, early triggers); the contract is then vacuous.
    if not session.captured:
        return
    blob = session.captured[-1]
    if epoch == 0:
        # One epoch-0 blob serves all four revoking strategies.
        for kind in REVOKING:
            cold = result_to_dict(_build(kind, scale, seed).run())
            forked, header = fork_simulation(blob, kind)
            assert header["epoch"] == 0
            assert result_to_dict(forked.resume()) == cold
    else:
        # Past epoch 0 the prefix is strategy-specific: same-strategy
        # forks resume bit-identically, cross-strategy forks refuse.
        forked, _ = fork_simulation(blob, RevokerKind.PAINT_SYNC)
        assert result_to_dict(forked.resume()) == leader_result
        from repro.errors import SnapshotError

        with pytest.raises(SnapshotError):
            fork_simulation(blob, RevokerKind.RELOADED)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scale=st.integers(min_value=1024, max_value=8192),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_two_jobs_sharing_a_prefix_never_double_capture(scale, seed):
    from repro.runner.campaign import (
        Job,
        WorkloadSpec,
        execute_job,
        pop_warm_start_note,
    )
    from repro.snapshot.prefix import PrefixStore

    workload = WorkloadSpec(
        "spec",
        {"benchmark": "hmmer", "input": "retro", "scale": scale, "seed": seed},
    )
    config = {"machine": {"memory_bytes": MEMORY_BYTES}}
    with tempfile.TemporaryDirectory() as tmp:
        previous = os.environ.get("REPRO_PREFIX_DIR")
        os.environ["REPRO_PREFIX_DIR"] = tmp
        try:
            notes = []
            for kind in (RevokerKind.PAINT_SYNC, RevokerKind.RELOADED):
                execute_job(Job(workload, kind, config))
                notes.append(pop_warm_start_note())
        finally:
            if previous is None:
                del os.environ["REPRO_PREFIX_DIR"]
            else:
                os.environ["REPRO_PREFIX_DIR"] = previous
        store = PrefixStore(tmp)
        assert store.entries() <= 1
        assert notes.count("capture") <= 1
        if store.entries():
            assert notes == ["capture", "hit"]
