"""Warm-start prefix sharing: key semantics, the store's first-writer
atomicity, cross-revoker forking, and the runner integration
(docs/WARMSTART.md)."""

from __future__ import annotations

import pytest

from repro.alloc.quarantine import QuarantinePolicy
from repro.core.config import RevokerKind, SimulationConfig
from repro.core.simulation import Simulation
from repro.errors import SnapshotError
from repro.runner.campaign import (
    Job,
    WorkloadSpec,
    execute_job,
    pop_warm_start_note,
    prefix_eligible,
)
from repro.runner.pool import run_jobs
from repro.runner.progress import CampaignProgress
from repro.runner.serialize import dumps_result
from repro.snapshot import (
    SnapshotPlan,
    SnapshotSession,
    read_header,
)
from repro.snapshot.prefix import (
    PrefixStore,
    fork_simulation,
    prefix_key,
    prefix_plan,
    retarget_revoker,
)
from repro.workloads import spec

REVOKING = (
    RevokerKind.PAINT_SYNC,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
)

CFG = {"machine": {"memory_bytes": 16 << 20}}


def _spec(scale=2048, seed=1):
    return WorkloadSpec(
        "spec", {"benchmark": "hmmer", "input": "retro", "scale": scale, "seed": seed}
    )


def _job(kind, scale=2048, seed=1):
    return Job(_spec(scale, seed), kind, CFG)


def _build(kind, scale=2048, seed=1):
    workload = spec.workload("hmmer", "retro", scale=scale, seed=seed)
    cfg = SimulationConfig(revoker=kind)
    cfg.machine.memory_bytes = 16 << 20
    return Simulation(workload, cfg)


class TestPrefixKey:
    def test_revokers_share_a_key_at_epoch_zero(self):
        keys = {prefix_key(_job(kind)) for kind in REVOKING}
        assert len(keys) == 1

    def test_revoker_splits_the_key_past_epoch_zero(self):
        keys = {prefix_key(_job(kind), divergence_epoch=2) for kind in REVOKING}
        assert len(keys) == len(REVOKING)

    def test_none_has_no_prefix(self):
        with pytest.raises(SnapshotError):
            prefix_key(_job(RevokerKind.NONE))

    def test_negative_epoch_rejected(self):
        with pytest.raises(SnapshotError):
            prefix_key(_job(RevokerKind.RELOADED), divergence_epoch=-1)

    def test_workload_seed_and_config_participate(self):
        base = prefix_key(_job(RevokerKind.RELOADED))
        assert prefix_key(_job(RevokerKind.RELOADED, scale=1024)) != base
        assert prefix_key(_job(RevokerKind.RELOADED, seed=2)) != base
        other_cfg = Job(_spec(), RevokerKind.RELOADED, {"machine": {"memory_bytes": 32 << 20}})
        assert prefix_key(other_cfg) != base

    def test_code_version_participates(self):
        a = prefix_key(_job(RevokerKind.RELOADED), code_version="aaaa")
        b = prefix_key(_job(RevokerKind.RELOADED), code_version="bbbb")
        assert a != b

    def test_eligibility(self):
        assert prefix_eligible(_job(RevokerKind.RELOADED))
        assert not prefix_eligible(_job(RevokerKind.NONE))
        assert not prefix_eligible(
            Job(WorkloadSpec("pgbench", {"transactions": 5}), RevokerKind.RELOADED, {})
        )


class TestPrefixStore:
    def test_miss_is_none(self, tmp_path):
        store = PrefixStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.entries() == 0

    def test_put_then_get(self, tmp_path):
        store = PrefixStore(tmp_path)
        assert store.put_if_absent("ab" * 32, b"blob") is True
        assert store.get("ab" * 32) == b"blob"
        assert "ab" * 32 in store
        assert store.entries() == 1

    def test_first_writer_wins(self, tmp_path):
        # The double-capture guard: the second writer is rejected and the
        # first blob survives untouched.
        store = PrefixStore(tmp_path)
        assert store.put_if_absent("cd" * 32, b"first") is True
        assert store.put_if_absent("cd" * 32, b"second") is False
        assert store.get("cd" * 32) == b"first"
        assert store.entries() == 1

    def test_paths_sorted(self, tmp_path):
        store = PrefixStore(tmp_path)
        store.put_if_absent("ff" * 32, b"z")
        store.put_if_absent("00" * 32, b"a")
        names = [p.stem for p in store.paths()]
        assert names == sorted(names)


class TestFork:
    def _prefix_blob(self, leader=RevokerKind.PAINT_SYNC):
        sim = _build(leader)
        session = SnapshotSession(sim, prefix_plan(0))
        result = sim.run(snapshots=session)
        assert session.captured, "prefix capture window missed"
        return session.captured[-1], dumps_result(result)

    def test_fork_is_bit_identical_for_every_revoker(self):
        blob, leader_cold = self._prefix_blob()
        assert dumps_result(_build(RevokerKind.PAINT_SYNC).run()) == leader_cold
        for kind in REVOKING:
            cold = dumps_result(_build(kind).run())
            forked, header = fork_simulation(blob, kind)
            assert header["epoch"] == 0
            assert dumps_result(forked.resume()) == cold

    def test_fork_to_none_rejected(self):
        blob, _ = self._prefix_blob()
        with pytest.raises(SnapshotError):
            fork_simulation(blob, RevokerKind.NONE)

    def test_retarget_past_epoch_zero_rejected(self):
        # An epoch-1 checkpoint carries strategy-specific state; only a
        # same-strategy resume is sound there.
        sim = _build(RevokerKind.RELOADED, scale=1024)
        session = SnapshotSession(
            sim, SnapshotPlan(every_epochs=1, max_captures=1)
        )
        result = sim.run(snapshots=session)
        if not session.captured:
            pytest.skip("run completed before the first epoch closed")
        same, _ = fork_simulation(session.captured[0], RevokerKind.RELOADED)
        assert dumps_result(same.resume()) == dumps_result(result)
        with pytest.raises(SnapshotError):
            fork_simulation(session.captured[0], RevokerKind.CORNUCOPIA)


class TestExecuteJobWarmStart:
    def test_capture_then_hits_bit_identical(self, tmp_path, monkeypatch):
        cold = {kind: dumps_result(execute_job(_job(kind))) for kind in REVOKING}
        assert pop_warm_start_note() is None

        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        store = PrefixStore(tmp_path)
        notes = []
        for kind in REVOKING:
            assert dumps_result(execute_job(_job(kind))) == cold[kind]
            notes.append(pop_warm_start_note())
        assert notes == ["capture", "hit", "hit", "hit"]
        assert store.entries() == 1
        header = read_header(store.paths()[0].read_bytes())
        assert header["epoch"] == 0
        assert header["prefix_key"] == prefix_key(_job(REVOKING[0]))

    def test_none_jobs_bypass_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        execute_job(_job(RevokerKind.NONE))
        assert pop_warm_start_note() is None
        assert PrefixStore(tmp_path).entries() == 0

    def test_corrupt_prefix_degrades_to_cold(self, tmp_path, monkeypatch):
        cold = dumps_result(execute_job(_job(RevokerKind.RELOADED)))
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        store = PrefixStore(tmp_path)
        key = prefix_key(_job(RevokerKind.RELOADED))
        store.put_if_absent(key, b"RPRSNAP garbage that is not a checkpoint")
        assert dumps_result(execute_job(_job(RevokerKind.RELOADED))) == cold
        assert pop_warm_start_note() is None


class TestRunJobsWarmStart:
    def _jobs(self):
        return [_job(kind) for kind in REVOKING]

    def test_in_process_counts_and_results(self, tmp_path, monkeypatch):
        cold = [dumps_result(r) for r in run_jobs(self._jobs(), max_workers=1)]
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        progress = CampaignProgress(len(REVOKING))
        warm = run_jobs(self._jobs(), max_workers=1, progress=progress)
        assert [dumps_result(r) for r in warm] == cold
        assert progress.prefix_captures == 1
        assert progress.prefix_hits == 3
        assert "prefix-hits=3 prefix-captures=1" in progress.summary()
        assert progress.as_dict()["prefix_hits"] == 3

    def test_pooled_gating_counts_and_results(self, tmp_path, monkeypatch):
        cold = [dumps_result(r) for r in run_jobs(self._jobs(), max_workers=1)]
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        progress = CampaignProgress(len(REVOKING))
        warm = run_jobs(self._jobs(), max_workers=2, progress=progress)
        assert [dumps_result(r) for r in warm] == cold
        # The gate holds the three followers until the leader stores the
        # prefix, so exactly one capture happens even with two workers.
        assert progress.prefix_captures == 1
        assert progress.prefix_hits == 3
        assert PrefixStore(tmp_path).entries() == 1

    def test_prewarmed_store_is_all_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
        run_jobs([self._jobs()[0]], max_workers=1)
        progress = CampaignProgress(len(REVOKING))
        run_jobs(self._jobs(), max_workers=2, progress=progress)
        assert progress.prefix_captures == 0
        assert progress.prefix_hits == 4


class TestWarmStartSaving:
    """The four-revoker sweep run cold, then with the three siblings
    forked from the leader's epoch-0 prefix. Warm work counts everything
    before the capture point once: leader + sum(follower - prefix). The
    quarantine floor is raised so the shared warmup dominates, the
    regime warm-start targets, while every strategy still revokes."""

    def _build(self, kind):
        workload = spec.workload("hmmer", "retro", scale=1024, seed=1)
        cfg = SimulationConfig(revoker=kind)
        cfg.machine.memory_bytes = 32 << 20
        cfg.policy = QuarantinePolicy(min_bytes=512 << 10)
        return Simulation(workload, cfg)

    def test_simulated_work_is_cut_and_results_hold(self):
        cold = {kind: self._build(kind).run() for kind in REVOKING}
        assert all(r.revocations >= 1 for r in cold.values())
        cold_cycles = sum(r.wall_cycles for r in cold.values())

        leader = self._build(REVOKING[0])
        session = SnapshotSession(leader, prefix_plan(0))
        leader_result = leader.run(snapshots=session)
        assert session.captured, "the leader captured no prefix"
        blob, capture_wall = session.captured[-1], session.headers[-1]["wall"]
        assert dumps_result(leader_result) == dumps_result(cold[REVOKING[0]])
        warm_cycles = leader_result.wall_cycles
        for kind in REVOKING[1:]:
            result = fork_simulation(blob, kind)[0].resume()
            assert dumps_result(result) == dumps_result(cold[kind])
            warm_cycles += result.wall_cycles - capture_wall

        assert (cold_cycles, warm_cycles) == (15364438, 7764085)
        assert cold_cycles / warm_cycles >= 1.8
