"""Cache hit/miss/invalidation behavior of the content-addressed store."""

from __future__ import annotations

import json

import pytest

from repro.core.config import RevokerKind
from repro.core.metrics import RunResult
from repro.runner.cache import ResultCache, code_fingerprint, job_fingerprint
from repro.runner.campaign import Job, WorkloadSpec


def _job(**overrides):
    fields = {
        "workload": WorkloadSpec(
            "spec", {"benchmark": "hmmer", "input": "retro", "scale": 2048}
        ),
        "revoker": RevokerKind.RELOADED,
        "config": {},
    }
    fields.update(overrides)
    return Job(**fields)


def _result(wall=123):
    return RunResult("hmmer.retro", RevokerKind.RELOADED, wall_cycles=wall)


class TestFingerprint:
    def test_stable_for_identical_jobs(self):
        assert job_fingerprint(_job()) == job_fingerprint(_job())

    def test_key_does_not_affect_identity(self):
        assert job_fingerprint(_job(key="a")) == job_fingerprint(_job(key="b"))

    def test_workload_param_changes_invalidate(self):
        base = job_fingerprint(_job())
        scaled = _job(
            workload=WorkloadSpec(
                "spec", {"benchmark": "hmmer", "input": "retro", "scale": 1024}
            )
        )
        assert job_fingerprint(scaled) != base

    def test_revoker_changes_invalidate(self):
        assert job_fingerprint(_job(revoker=RevokerKind.CORNUCOPIA)) != \
            job_fingerprint(_job())

    def test_config_changes_invalidate(self):
        base = job_fingerprint(_job())
        assert job_fingerprint(_job(config={"revoker_core": 1})) != base
        assert job_fingerprint(_job(config={"machine": {"cache_bytes": 2 << 20}})) != base

    def test_code_version_invalidates(self):
        a = job_fingerprint(_job(), code_version="aaaa")
        b = job_fingerprint(_job(), code_version="bbbb")
        assert a != b

    def test_default_code_version_is_simulation_sources(self):
        # Deterministic within a process...
        assert code_fingerprint() == code_fingerprint()
        # ...and the default fingerprint uses it.
        assert job_fingerprint(_job()) == job_fingerprint(
            _job(), code_version=code_fingerprint()
        )


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.entries() == 0

    def test_put_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        result = _result()
        cache.put(fp, result, job=_job())
        assert fp in cache
        assert cache.get(fp) == result
        assert cache.entries() == 1

    def test_distinct_fingerprints_are_distinct_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = job_fingerprint(_job()), job_fingerprint(_job(revoker=RevokerKind.NONE))
        cache.put(a, _result(1))
        cache.put(b, _result(2))
        assert cache.get(a).wall_cycles == 1
        assert cache.get(b).wall_cycles == 2

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        path = cache.put(fp, _result())
        path.write_text("{torn write")
        assert cache.get(fp) is None
        assert not path.exists()

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        path = cache.put(fp, _result())
        # A file renamed under the wrong address must not be served.
        envelope = json.loads(path.read_text())
        envelope["fingerprint"] = "f" * 64
        path.write_text(json.dumps(envelope))
        assert cache.get(fp) is None

    def test_write_is_atomic_no_tmp_residue(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        path = cache.put(fp, _result())
        leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"


class TestEnvelopeAccess:
    """The serving layer reads/writes raw serialized envelopes so cache
    hits skip the decode/re-encode round-trip."""

    def test_envelope_roundtrip_preserves_serialization(self, tmp_path):
        from repro.runner.serialize import result_from_dict, result_to_dict

        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        cache.put(fp, _result(), job=_job())
        envelope = cache.get_envelope(fp)
        assert envelope is not None
        assert envelope["fingerprint"] == fp
        decoded = result_from_dict(envelope)
        assert result_to_dict(decoded) == result_to_dict(_result())

    def test_put_envelope_then_get(self, tmp_path):
        from repro.runner.serialize import result_to_dict

        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        cache.put_envelope(fp, result_to_dict(_result(wall=77)))
        hit = cache.get(fp)
        assert hit is not None
        assert hit.wall_cycles == 77

    def test_put_envelope_rejects_wrong_format(self, tmp_path):
        from repro.runner.serialize import SerializationError

        cache = ResultCache(tmp_path)
        with pytest.raises(SerializationError, match="format"):
            cache.put_envelope("f" * 64, {"format": 999})

    def test_get_envelope_discards_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = job_fingerprint(_job())
        path = cache._path_of(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"format": 999, "fingerprint": fp}))
        assert cache.get_envelope(fp) is None
        assert not path.exists()  # poisoned entry removed


class TestEndToEndInvalidation:
    """Changing any knob re-simulates exactly the affected jobs."""

    def test_repeat_campaign_is_all_hits_and_equal(self, tmp_path):
        from repro.runner import run_jobs
        from repro.runner.progress import CampaignProgress

        cache = ResultCache(tmp_path)
        jobs = [
            _job(),
            _job(revoker=RevokerKind.NONE),
        ]
        first = run_jobs(jobs, cache=cache, max_workers=1)
        progress = CampaignProgress(len(jobs))
        second = run_jobs(jobs, cache=cache, max_workers=1, progress=progress)
        assert progress.cache_hits == len(jobs) and progress.fresh == 0
        assert first == second

    def test_changed_config_invalidates_only_affected_job(self, tmp_path):
        from repro.runner import run_jobs
        from repro.runner.progress import CampaignProgress

        cache = ResultCache(tmp_path)
        jobs = [_job(), _job(revoker=RevokerKind.NONE)]
        run_jobs(jobs, cache=cache, max_workers=1)
        # Perturb one job's config; the other stays cached.
        changed = [_job(config={"app_core": 2}), _job(revoker=RevokerKind.NONE)]
        progress = CampaignProgress(len(changed))
        run_jobs(changed, cache=cache, max_workers=1, progress=progress)
        assert progress.cache_hits == 1
        assert progress.fresh == 1


class TestCodeFingerprintScope:
    """Which sources feed the simulation code fingerprint. Tooling-only
    changes (runner, serve, perf, check, analysis, CLI) must keep every
    cached result warm; simulation and observability sources must
    invalidate."""

    def _tree(self, tmp_path):
        root = tmp_path / "repro"
        for sub in ("core", "obs", "runner", "analysis", "serve", "perf", "check", "cli"):
            (root / sub).mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "cli" / "__init__.py").write_text("CLI = 1\n")
        (root / "core" / "simulation.py").write_text("SIM = 1\n")
        (root / "obs" / "tracer.py").write_text("TRACE = 1\n")
        (root / "runner" / "pool.py").write_text("POOL = 1\n")
        (root / "analysis" / "tables.py").write_text("TABLE = 1\n")
        (root / "serve" / "server.py").write_text("SERVE = 1\n")
        (root / "perf" / "targets.py").write_text("BENCH = 1\n")
        (root / "check" / "oracles.py").write_text("CHECK = 1\n")
        return root

    def _fingerprint(self, root, monkeypatch):
        import repro
        import repro.runner.cache as cache_mod

        monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
        monkeypatch.setattr(cache_mod, "_code_fingerprint_cache", None)
        fp = code_fingerprint()
        # Drop the per-process memo computed against the fake tree so the
        # next call (this test's or a later test's) recomputes.
        cache_mod._code_fingerprint_cache = None
        return fp

    def test_perf_only_touch_keeps_the_fingerprint(self, tmp_path, monkeypatch):
        # Regression: serve/, perf/, and check/ postdate the original
        # exclusion list, so touching a benchmark used to cold-start the
        # entire result cache.
        root = self._tree(tmp_path)
        base = self._fingerprint(root, monkeypatch)
        (root / "perf" / "targets.py").write_text("BENCH = 2\n")
        assert self._fingerprint(root, monkeypatch) == base

    def test_all_tooling_layers_are_excluded(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        base = self._fingerprint(root, monkeypatch)
        (root / "serve" / "server.py").write_text("SERVE = 2\n")
        (root / "check" / "oracles.py").write_text("CHECK = 2\n")
        (root / "runner" / "pool.py").write_text("POOL = 2\n")
        (root / "analysis" / "tables.py").write_text("TABLE = 2\n")
        (root / "cli" / "__init__.py").write_text("CLI = 2\n")
        (root / "perf" / "extra.py").write_text("NEW = 1\n")
        assert self._fingerprint(root, monkeypatch) == base

    def test_simulation_sources_still_invalidate(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path)
        base = self._fingerprint(root, monkeypatch)
        (root / "core" / "simulation.py").write_text("SIM = 2\n")
        assert self._fingerprint(root, monkeypatch) != base

    def test_obs_sources_still_invalidate(self, tmp_path, monkeypatch):
        # obs/ feeds RunResult.metrics; it stays inside the fingerprint.
        root = self._tree(tmp_path)
        base = self._fingerprint(root, monkeypatch)
        (root / "obs" / "tracer.py").write_text("TRACE = 2\n")
        assert self._fingerprint(root, monkeypatch) != base
