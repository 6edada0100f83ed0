"""Settings: the one typed view of every REPRO_* environment knob.

Covers the consolidation contract from docs/API.md:

- one parse point (`Settings.from_env`) with validation and typed
  defaults, `to_env` emitting only non-defaults, and the hypothesis
  round-trip `from_env(to_env(s)) == s`;
- precedence pinned: CLI flag > environment variable > built-in default;
- the historical per-variable semantics preserved (empty string unsets
  most vars but is a loud parse error for the count knobs);
- the grep lint: no direct `REPRO_*` environ reads anywhere in
  src/repro outside settings.py.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro import settings
from repro.errors import ConfigError
from repro.settings import FIELDS, MANAGED_VARS, Settings

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestDefaults:
    def test_from_empty_env_is_default(self):
        assert Settings.from_env({}) == Settings()

    def test_default_to_env_is_empty(self):
        assert Settings().to_env() == {}

    def test_every_field_has_a_var(self):
        s = Settings()
        for name, decl in FIELDS.items():
            assert decl.var.startswith("REPRO_")
            assert hasattr(s, name)
        assert len(MANAGED_VARS) == len(FIELDS) == 12


class TestParsing:
    def test_typed_values(self):
        s = Settings.from_env({
            "REPRO_JOBS": "4",
            "REPRO_JOB_TIMEOUT": "2.5",
            "REPRO_CACHE_DIR": "/tmp/c",
            "REPRO_PROGRESS": "1",
            "REPRO_PREFIX_EPOCH": "3",
        })
        assert s.jobs == 4
        assert s.job_timeout_s == 2.5
        assert s.cache_dir == Path("/tmp/c")
        assert s.progress is True
        assert s.prefix_epoch == 3

    def test_bad_int_is_loud(self):
        with pytest.raises(ConfigError, match="REPRO_JOBS='three' is not an integer"):
            Settings.from_env({"REPRO_JOBS": "three"})

    def test_bad_timeout_is_loud(self):
        with pytest.raises(ConfigError, match="is not a number"):
            Settings.from_env({"REPRO_JOB_TIMEOUT": "soon"})
        with pytest.raises(ConfigError, match="> 0 seconds"):
            Settings.from_env({"REPRO_JOB_TIMEOUT": "0"})

    def test_range_validation(self):
        with pytest.raises(ConfigError, match="REPRO_JOBS must be >= 0"):
            Settings.from_env({"REPRO_JOBS": "-1"})
        with pytest.raises(ConfigError, match="REPRO_SERVE_WORKERS must be >= 1"):
            Settings.from_env({"REPRO_SERVE_WORKERS": "0"})
        with pytest.raises(ConfigError, match="REPRO_PREFIX_EPOCH must be >= 0"):
            Settings(prefix_epoch=-2)

    def test_empty_string_unsets_most_vars(self):
        # Historical semantics: VAR="" means "unset" for paths, flags,
        # timeouts, and the epoch...
        s = Settings.from_env({
            "REPRO_CACHE_DIR": "",
            "REPRO_JOB_TIMEOUT": "",
            "REPRO_PROGRESS": "",
            "REPRO_PREFIX_EPOCH": "",
        })
        assert s == Settings()

    @pytest.mark.parametrize("var", ["REPRO_JOBS", "REPRO_SERVE_WORKERS",
                                     "REPRO_SERVE_QUEUE"])
    def test_empty_string_is_loud_for_counts(self, var):
        # ...but stays a loud parse error for the count knobs, exactly
        # as the scattered readers behaved before consolidation.
        with pytest.raises(ConfigError, match="is not an integer"):
            Settings.from_env({var: ""})


def _settings_strategy():
    paths = st.one_of(st.none(), st.just(Path("/tmp/repro-test")))
    timeouts = st.one_of(st.none(), st.floats(min_value=0.25, max_value=900.0,
                                              allow_nan=False))
    return st.builds(
        Settings,
        jobs=st.integers(min_value=0, max_value=64),
        job_timeout_s=timeouts,
        cache_dir=paths,
        trace_dir=paths,
        snapshot_dir=paths,
        prefix_dir=paths,
        prefix_epoch=st.integers(min_value=0, max_value=9),
        progress=st.booleans(),
        serve_workers=st.integers(min_value=1, max_value=16),
        serve_queue=st.integers(min_value=1, max_value=256),
        serve_job_timeout_s=timeouts,
        bench_force=st.booleans(),
    )


class TestRoundTrip:
    @given(_settings_strategy())
    def test_env_round_trip(self, s):
        assert Settings.from_env(s.to_env()) == s

    @given(_settings_strategy())
    def test_to_env_only_emits_non_defaults(self, s):
        default = Settings()
        env = s.to_env()
        for name, decl in FIELDS.items():
            if getattr(s, name) == getattr(default, name):
                assert decl.var not in env

    def test_apply_exports_and_unsets(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "9")
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        Settings(cache_dir=Path("/tmp/x")).apply()
        import os

        assert os.environ.get("REPRO_CACHE_DIR") == "/tmp/x"
        # Fields at their default are scrubbed so the environment
        # mirrors the Settings value exactly.
        assert "REPRO_JOBS" not in os.environ
        assert "REPRO_PROGRESS" not in os.environ
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestAccessors:
    """Readers call ``Settings.from_env()`` when they run, so
    monkeypatched tests (and exports made before a fork) see updates."""

    def test_max_workers_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert Settings.from_env().max_workers() == 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert Settings.from_env().max_workers() == 5
        monkeypatch.setenv("REPRO_JOBS", "0")
        import os

        assert Settings.from_env().max_workers() == (os.cpu_count() or 1)

    def test_set_env_round_trips(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        settings.set_env("trace_dir", "/tmp/traces")
        assert Settings.from_env().trace_dir == Path("/tmp/traces")
        settings.set_env("trace_dir", None)
        assert Settings.from_env().trace_dir is None

    def test_flag_accessor(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert Settings.from_env().progress is True
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert Settings.from_env().progress is False


class TestPrecedence:
    """CLI flag > environment variable > built-in default, pinned via
    the campaign command's --jobs flag against REPRO_JOBS."""

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"name": "p", "workloads": [{"kind": "spec", "params": '
            '{"benchmark": "hmmer", "input": "retro", "scale": 2048}}], '
            '"revokers": ["none"], "seeds": [1]}'
        )
        return str(path)

    def test_flag_beats_env_beats_default(self, monkeypatch, tmp_path, spec_file):
        from repro.runner import pool

        seen = []
        real = pool.run_jobs

        def spy(jobs, **kwargs):
            seen.append(kwargs.get("max_workers"))
            return real(jobs, **kwargs)

        from repro.cli import campaign as campaign_cmd, main

        monkeypatch.setattr(campaign_cmd, "run_jobs", spy, raising=False)
        monkeypatch.setattr("repro.runner.run_jobs", spy)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        # Default: no flag, no env — the pool resolves REPRO_JOBS=unset to 1.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["campaign", spec_file, "--quiet"]) == 0
        assert seen[-1] is None  # pool default applies
        assert Settings.from_env().max_workers() == 1

        # Env beats default.
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert Settings.from_env().max_workers() == 2

        # Flag beats env.
        assert main(["campaign", spec_file, "--quiet", "--jobs", "3"]) == 0
        assert seen[-1] == 3

    @pytest.mark.parametrize(
        ("var", "raw", "flags"),
        [
            ("REPRO_JOBS", "auto", ["--jobs", "2"]),  # overridden by a flag
            ("REPRO_SERVE_QUEUE", "many", []),  # never used by a campaign
        ],
    )
    def test_malformed_var_is_fatal_everywhere(
        self, monkeypatch, tmp_path, spec_file, capsys, var, raw, flags
    ):
        """Precedence orders well-formed values only. Every reader parses
        the whole environment, so a malformed REPRO_* variable stops any
        command at its first settings read: exit 2 naming the variable."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(var, raw)
        assert main(["campaign", spec_file, "--quiet", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and var in err
        assert "Traceback" not in err


class TestLint:
    def test_no_environ_reads_outside_settings(self):
        """The consolidation is total: settings.py is the only module in
        src/repro that touches a REPRO_* environment variable."""
        pattern = re.compile(
            r"environ\[\s*[\"']REPRO_"
            r"|environ\.get\(\s*[\"']REPRO_"
            r"|getenv\(\s*[\"']REPRO_"
        )
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "settings.py":
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == []
