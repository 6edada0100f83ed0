"""The report envelope and overwrite guard (``repro.perf.report``).

Covers the PerfReport schema round-trip (property-based) and its
refusals, the serve load generator's report envelope, and the git-sha
guard that keeps a record made at one commit from being overwritten
from another.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PerfError
from repro.perf.report import (
    DETERMINISTIC,
    WALL,
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
)


# --- PerfReport schema round-trip (property-based) ---------------------------

metric_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=12
)
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=32, min_value=-1e6, max_value=1e6
)
series_strategy = st.builds(
    MetricSeries,
    kind=st.sampled_from([DETERMINISTIC, WALL]),
    samples=st.lists(finite_floats, min_size=0, max_size=5),
)
report_strategy = st.builds(
    PerfReport,
    suite=st.sampled_from(["smoke", "full", "sweep"]),
    env=st.fixed_dictionaries({"git_sha": st.none() | st.text(max_size=40)}),
    config=st.dictionaries(metric_names, finite_floats, max_size=3),
    benchmarks=st.dictionaries(
        metric_names,
        st.builds(
            BenchmarkResult,
            metrics=st.dictionaries(metric_names, series_strategy, max_size=3),
            config=st.dictionaries(metric_names, finite_floats, max_size=2),
        ),
        max_size=4,
    ),
)


class TestPerfReport:
    @settings(max_examples=50, deadline=None)
    @given(report=report_strategy)
    def test_roundtrip(self, report):
        restored = PerfReport.loads(report.dumps())
        assert restored.to_dict() == report.to_dict()

    def test_unknown_schema_refused(self):
        data = PerfReport(suite="smoke", env={"git_sha": None}).to_dict()
        data["schema"] = 99
        with pytest.raises(PerfError, match="schema"):
            PerfReport.from_dict(data)

    def test_legacy_shape_refused_with_hint(self):
        with pytest.raises(PerfError, match="re-record") as excinfo:
            PerfReport.from_dict({"benchmark": "sweep_micro"})
        assert "bench convert" not in str(excinfo.value)

    def test_unknown_metric_kind_refused(self):
        with pytest.raises(PerfError, match="kind"):
            MetricSeries(kind="cpu", samples=[1.0])


# --- The git-sha overwrite guard -------------------------------------------


class TestCheckOverwrite:
    def test_check_overwrite_matrix(self):
        check_overwrite(None, "b", "x")
        check_overwrite("a", None, "x")
        check_overwrite("a", "a", "x")
        check_overwrite("a", "b", "x", force=True)
        with pytest.raises(PerfError):
            check_overwrite("a", "b", "x")


# --- The serve load generator's report --------------------------------------


class TestServeBenchReport:
    def test_phases_become_wall_metrics_with_raw_detail(self):
        from repro.serve.bench import perf_report

        raw = {
            "benchmark": "serve",
            "config": {"requests": 60},
            "service": {
                "requests": 60, "ok": 60, "failures": 0,
                "throughput_rps": 280.0, "p50_ms": 0.5, "p99_ms": 100.0,
                "mean_ms": 10.0, "wall_s": 0.21,
            },
        }
        report = perf_report(raw)
        assert report.suite == "serve"
        assert report.benchmarks["serve.service"].metrics["throughput_rps"].samples == [
            280.0
        ]
        assert report.benchmarks["serve.service"].config["ok"] == 60
        assert report.detail["raw"]["service"]["ok"] == 60
        assert PerfReport.loads(report.dumps()).to_dict() == report.to_dict()
