"""The continuous-benchmarking subsystem (``repro.perf``).

Covers the exact gate (every deterministic sample must equal the
baseline's value; wall-clock series are shown and never judged), one
``bench compare --against`` case per situation the gate must catch, the
PerfReport schema round-trip (property-based), the per-suite baseline
files with their git-sha overwrite guard, the runner's
warmup/repetition semantics, the end-to-end drill (a perturbed saved
report fails the gate), the serve load generator's report envelope, and
the committed baselines.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import PerfError
from repro.perf.baselines import BaselineStore
from repro.perf.registry import DETERMINISTIC, WALL, BenchmarkDef, Probe
from repro.perf.regression import (
    CHANGED,
    MISSING,
    NEW,
    OK,
    compare_reports,
    compare_series,
)
from repro.perf.report import (
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
)
from repro.perf.runner import Runner

BASELINES = Path(__file__).resolve().parent.parent / "perf" / "baselines"


# --- The exact rule on one deterministic series -----------------------------


def _verdict(baseline: list[float], current: list[float]) -> str | None:
    return compare_series(
        "b",
        "cycles",
        MetricSeries(DETERMINISTIC, baseline),
        MetricSeries(DETERMINISTIC, current),
    ).verdict


class TestClassifyDeterministic:
    def test_identical_is_ok(self):
        assert _verdict([100.0] * 3, [100.0] * 3) == OK

    def test_sample_counts_may_differ(self):
        # The nightly run takes 20 samples against a 10-sample baseline.
        assert _verdict([100.0] * 10, [100.0] * 20) == OK

    def test_doubling_regresses(self):
        assert _verdict([100.0] * 3, [200.0] * 3) == CHANGED

    def test_growth_from_zero_regresses(self):
        assert _verdict([0.0] * 3, [5.0] * 3) == CHANGED

    def test_nondeterministic_baseline_never_matches(self):
        assert _verdict([100.0, 101.0], [100.0, 101.0]) == CHANGED

    def test_empty_current_series_changes(self):
        assert _verdict([100.0], []) == CHANGED


# --- Report comparison (catalog drift, kinds) --------------------------------


def _report(suite: str, benchmarks: dict[str, dict[str, MetricSeries]]) -> PerfReport:
    return PerfReport(
        suite=suite,
        env={"git_sha": None},
        benchmarks={
            name: BenchmarkResult(metrics=metrics)
            for name, metrics in benchmarks.items()
        },
    )


class TestCompareReports:
    def test_deterministic_regression_gates(self):
        base = _report("smoke", {"b": {"cycles": MetricSeries(DETERMINISTIC, [100])}})
        cur = _report("smoke", {"b": {"cycles": MetricSeries(DETERMINISTIC, [250])}})
        comparison = compare_reports(base, cur)
        assert [r.verdict for r in comparison] == [CHANGED]
        assert comparison.failures
        assert comparison.exit_code() == 1
        assert "FAIL" in comparison.summary()

    def test_wall_regression_does_not_gate(self):
        base = _report("smoke", {"b": {"wall_s": MetricSeries(WALL, [1.0, 1.01, 0.99])}})
        cur = _report("smoke", {"b": {"wall_s": MetricSeries(WALL, [3.0, 3.01, 2.99])}})
        comparison = compare_reports(base, cur)
        (row,) = comparison.rows
        assert row.verdict is None
        assert row.ratio == pytest.approx(3.0, rel=1e-3)
        assert comparison.exit_code() == 0
        assert "PASS" in comparison.summary()

    def test_catalog_drift_fails(self):
        base = _report("smoke", {"old": {"c": MetricSeries(DETERMINISTIC, [1])}})
        cur = _report("smoke", {"new": {"c": MetricSeries(DETERMINISTIC, [1])}})
        comparison = compare_reports(base, cur)
        assert {r.benchmark: r.verdict for r in comparison} == {
            "new": NEW,
            "old": MISSING,
        }
        assert comparison.exit_code() == 1

    def test_kind_change_fails(self):
        base = _report("smoke", {"b": {"m": MetricSeries(DETERMINISTIC, [1.0])}})
        cur = _report("smoke", {"b": {"m": MetricSeries(WALL, [1.0])}})
        (row,) = compare_reports(base, cur).rows
        assert row.verdict == CHANGED
        assert "kind" in row.note


# --- One `bench compare --against` case per situation ------------------------


def _baseline_report() -> PerfReport:
    return _report(
        "smoke",
        {
            "a.bench": {
                "cycles": MetricSeries(DETERMINISTIC, [1000.0] * 3),
                "bytes": MetricSeries(DETERMINISTIC, [512.0] * 3),
                "wall_s": MetricSeries(WALL, [0.10, 0.11, 0.09]),
            },
            "b.bench": {
                "cycles": MetricSeries(DETERMINISTIC, [7.0] * 3),
                "wall_s": MetricSeries(WALL, [0.20, 0.21, 0.19]),
            },
        },
    )


def _compare_exit(tmp_path: Path, current: PerfReport) -> int:
    baseline_path = tmp_path / "baseline.json"
    current_path = tmp_path / "current.json"
    _baseline_report().save(baseline_path)
    current.save(current_path)
    return main(
        ["bench", "compare", str(current_path), "--against", str(baseline_path)]
    )


class TestExactGate:
    def test_unchanged_report_passes(self, tmp_path):
        assert _compare_exit(tmp_path, _baseline_report()) == 0

    def test_one_sample_one_percent_higher_fails(self, tmp_path):
        current = _baseline_report()
        current.benchmarks["a.bench"].metrics["cycles"].samples[1] = 1010.0
        assert _compare_exit(tmp_path, current) == 1

    def test_one_sample_ten_percent_lower_fails(self, tmp_path):
        current = _baseline_report()
        current.benchmarks["a.bench"].metrics["cycles"].samples[2] = 900.0
        assert _compare_exit(tmp_path, current) == 1

    def test_deterministic_metric_recorded_as_wall_fails(self, tmp_path, monkeypatch):
        # The gate must behave the same under GitHub Actions as locally.
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        current = _baseline_report()
        current.benchmarks["a.bench"].metrics["bytes"].kind = WALL
        assert _compare_exit(tmp_path, current) == 1

    def test_missing_deterministic_metric_fails(self, tmp_path):
        current = _baseline_report()
        del current.benchmarks["a.bench"].metrics["bytes"]
        assert _compare_exit(tmp_path, current) == 1

    def test_new_deterministic_metric_fails(self, tmp_path):
        current = _baseline_report()
        current.benchmarks["a.bench"].metrics["faults"] = MetricSeries(
            DETERMINISTIC, [0.0] * 3
        )
        assert _compare_exit(tmp_path, current) == 1

    def test_wall_changes_alone_pass(self, tmp_path):
        current = _baseline_report()
        for bench in current.benchmarks.values():
            wall = bench.metrics["wall_s"]
            wall.samples = [3 * v for v in wall.samples]
        assert _compare_exit(tmp_path, current) == 0

    def test_filtered_run_ignores_other_benchmarks(self, tmp_path):
        current = _baseline_report()
        del current.benchmarks["b.bench"]
        current.config["pattern"] = "a.*"
        assert _compare_exit(tmp_path, current) == 0


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
        data = _report("smoke", {}).to_dict()
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


# --- Per-suite baseline files + git-sha overwrite guard ---------------------


def _stamped(suite: str, sha: str | None, cycles: float = 100.0) -> PerfReport:
    return PerfReport(
        suite=suite,
        env={"git_sha": sha},
        benchmarks={
            "b": BenchmarkResult(
                metrics={"cycles": MetricSeries(DETERMINISTIC, [cycles])}
            )
        },
    )


class TestBaselineStore:
    def test_record_and_load(self, tmp_path):
        store = BaselineStore(tmp_path / "baselines")
        report = _stamped("smoke", "aaa")
        path = store.record(report)
        assert path == tmp_path / "baselines" / "smoke.json"
        assert PerfReport.load(path).to_dict() == report.to_dict()
        assert store.load("smoke").to_dict() == report.to_dict()

    def test_missing_suite_error_names_remedy(self, tmp_path):
        with pytest.raises(PerfError, match="--record"):
            BaselineStore(tmp_path).load("smoke")

    def test_file_of_another_suite_refused(self, tmp_path):
        _stamped("full", "aaa").save(tmp_path / "smoke.json")
        with pytest.raises(PerfError, match="holds suite 'full'"):
            BaselineStore(tmp_path).load("smoke")

    def test_same_sha_rerecord_allowed(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_stamped("smoke", "aaa", cycles=100.0))
        store.record(_stamped("smoke", "aaa", cycles=150.0))
        assert store.load("smoke").benchmarks["b"].metrics["cycles"].samples == [150.0]

    def test_cross_sha_overwrite_refused_then_forced(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_stamped("smoke", "aaa"))
        with pytest.raises(PerfError, match="refusing to overwrite"):
            store.record(_stamped("smoke", "bbb"))
        store.record(_stamped("smoke", "bbb"), force=True)
        assert store.load("smoke").env["git_sha"] == "bbb"

    def test_unknown_sha_never_refuses(self, tmp_path, monkeypatch):
        # Either side missing a sha (tarball checkout): nothing to
        # compare, the write proceeds. A record without an env sha falls
        # back to the checkout's HEAD, so pin that to None too.
        import repro.perf.baselines as baselines_mod

        monkeypatch.setattr(baselines_mod, "git_sha", lambda: None)
        store = BaselineStore(tmp_path)
        store.record(_stamped("smoke", None))
        store.record(_stamped("smoke", "aaa"))
        store.record(_stamped("smoke", None, cycles=1.0))

    def test_check_overwrite_matrix(self):
        check_overwrite(None, "b", "x")
        check_overwrite("a", None, "x")
        check_overwrite("a", "a", "x")
        check_overwrite("a", "b", "x", force=True)
        with pytest.raises(PerfError):
            check_overwrite("a", "b", "x")


# --- Runner semantics --------------------------------------------------------


def _defs(fn, *, warmup=0, smoke_reps=3, name="t.bench") -> BenchmarkDef:
    return BenchmarkDef(
        name=name,
        fn=fn,
        suites=("smoke",),
        description="test target",
        smoke_reps=smoke_reps,
        warmup=warmup,
    )


class TestRunner:
    def test_warmup_repetitions_are_discarded(self):
        calls = []

        def target(probe: Probe) -> None:
            calls.append(1)
            probe.record("cycles", len(calls))

        report = Runner(mode="smoke").run(
            benchmarks=[_defs(target, warmup=2, smoke_reps=3)]
        )
        # 2 warmup + 3 measured calls; only the last 3 recorded.
        assert len(calls) == 5
        samples = report.benchmarks["t.bench"].metrics["cycles"].samples
        assert samples == [3.0, 4.0, 5.0]

    def test_wall_fallback_when_target_records_none(self):
        report = Runner(mode="smoke").run(
            benchmarks=[_defs(lambda probe: probe.record("cycles", 7))]
        )
        metrics = report.benchmarks["t.bench"].metrics
        assert metrics["wall_s"].kind == WALL
        assert len(metrics["wall_s"].samples) == 3

    def test_deterministic_drift_is_surfaced(self):
        counter = iter(range(100))

        def drifting(probe: Probe) -> None:
            probe.record("cycles", next(counter))

        report = Runner(mode="smoke").run(benchmarks=[_defs(drifting)])
        assert report.detail["nondeterministic"] == ["t.bench/cycles"]

    def test_inconsistent_metric_sets_refused(self):
        state = {"rep": 0}

        def flaky(probe: Probe) -> None:
            state["rep"] += 1
            if state["rep"] == 2:
                probe.record("extra", 1)
            probe.record("cycles", 1)

        with pytest.raises(PerfError, match="some repetitions"):
            Runner(mode="smoke").run(benchmarks=[_defs(flaky)])

    def test_duplicate_metric_in_one_rep_refused(self):
        def doubled(probe: Probe) -> None:
            probe.record("cycles", 1)
            probe.record("cycles", 2)

        with pytest.raises(PerfError, match="twice"):
            Runner(mode="smoke").run(benchmarks=[_defs(doubled)])


# --- The end-to-end drill ---------------------------------------------------


class TestGateEndToEnd:
    def test_injected_regression_fails_gate(self, tmp_path):
        """Record a real (filtered) smoke run, gate a fresh run against
        it, then double one deterministic sample in the saved report:
        ``bench compare --against`` must fail."""
        run = ["bench", "run", "--suite", "smoke", "--filter", "sweep.scan",
               "--baseline-dir", str(tmp_path), "--quiet"]
        assert main([*run, "--record"]) == 0
        report_path = tmp_path / "current.json"
        assert main([*run, "--compare", "--out", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        samples = data["benchmarks"]["sweep.scan"]["metrics"]["bus_transactions"][
            "samples"
        ]
        samples[0] *= 2
        report_path.write_text(json.dumps(data))
        against = ["--against", str(tmp_path / "smoke.json")]
        assert main(["bench", "compare", str(report_path), *against]) == 1


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


# --- The committed baselines stay loadable ----------------------------------


class TestCommittedBaseline:
    def test_smoke_ref_resolves(self):
        # CI's perf-gate compares against perf/baselines/smoke.json, so a
        # corrupt file must fail here first.
        report = BaselineStore(BASELINES).load("smoke")
        kinds = {
            s.kind
            for b in report.benchmarks.values()
            for s in b.metrics.values()
        }
        assert DETERMINISTIC in kinds

    @pytest.mark.parametrize("suite", ["smoke", "full"])
    def test_deterministic_series_hold_one_value(self, suite):
        # A baseline series with two values could never pass the gate.
        report = BaselineStore(BASELINES).load(suite)
        for name, bench in report.benchmarks.items():
            for metric, series in bench.metrics.items():
                if series.kind == DETERMINISTIC:
                    assert len(set(series.samples)) == 1, f"{name}/{metric}"
