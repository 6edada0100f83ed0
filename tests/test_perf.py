"""The continuous-benchmarking subsystem (``repro.perf``).

Covers the regression detector on synthetic distributions (the verdicts
the CI gate hangs off), bootstrap determinism under a fixed seed, the
PerfReport schema round-trip (property-based), the content-addressed
baseline store with its git-sha overwrite guard, the runner's
warmup/repetition semantics, the end-to-end gate exit codes (including
the documented ``REPRO_PERF_INJECT`` 2x-regression drill), and the
serve load generator's report envelope.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PerfError
from repro.perf.baselines import BaselineStore
from repro.perf.registry import DETERMINISTIC, WALL, BenchmarkDef, Probe
from repro.perf.regression import (
    IMPROVED,
    MIN_WALL_SAMPLES,
    MISSING,
    NEW,
    NOISY,
    OK,
    REGRESSED,
    Thresholds,
    bootstrap_ci_median,
    classify_deterministic,
    classify_wall,
    compare_reports,
    mad,
)
from repro.perf.report import (
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
)
from repro.perf.runner import Runner

THRESHOLDS = Thresholds()


# --- Regression detector on synthetic distributions --------------------------


class TestClassifyDeterministic:
    def test_identical_is_ok(self):
        verdict, _ = classify_deterministic([100.0] * 3, [100.0] * 3, THRESHOLDS)
        assert verdict == OK

    def test_within_tolerance_is_ok(self):
        # 1% above a 2% tolerance band.
        verdict, _ = classify_deterministic([100.0] * 3, [101.0] * 3, THRESHOLDS)
        assert verdict == OK

    def test_doubling_regresses(self):
        verdict, _ = classify_deterministic([100.0] * 3, [200.0] * 3, THRESHOLDS)
        assert verdict == REGRESSED

    def test_halving_improves(self):
        verdict, _ = classify_deterministic([100.0] * 3, [50.0] * 3, THRESHOLDS)
        assert verdict == IMPROVED

    def test_growth_from_zero_regresses(self):
        verdict, _ = classify_deterministic([0.0] * 3, [5.0] * 3, THRESHOLDS)
        assert verdict == REGRESSED


class TestClassifyWall:
    def test_same_distribution_is_ok(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00]
        cur = [1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.03, 0.99]
        verdict, _ = classify_wall(base, cur, THRESHOLDS)
        assert verdict == OK

    def test_clear_shift_regresses(self):
        # 2x shift, tight spread, enough samples: unambiguous.
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99]
        cur = [2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.00]
        verdict, _ = classify_wall(base, cur, THRESHOLDS)
        assert verdict == REGRESSED

    def test_clear_drop_improves(self):
        base = [2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.00]
        cur = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99]
        verdict, _ = classify_wall(base, cur, THRESHOLDS)
        assert verdict == IMPROVED

    def test_wide_noise_is_not_a_regression(self):
        # The medians differ ~30% but spread swamps the shift: the MAD
        # guard or the overlapping bootstrap CIs must hold the verdict
        # at ok/noisy, never regressed.
        base = [1.0, 3.0, 0.5, 2.5, 1.5, 2.8, 0.7, 2.0]
        cur = [1.3, 3.8, 0.6, 3.2, 1.9, 3.5, 0.9, 2.6]
        verdict, _ = classify_wall(base, cur, THRESHOLDS)
        assert verdict in (OK, NOISY)

    def test_tiny_absolute_wobble_is_ok(self):
        # Microseconds-scale metric, zero MAD (identical samples), but
        # the shift is under the relative floor: never alarms.
        verdict, _ = classify_wall([1e-6] * 8, [1.05e-6] * 8, THRESHOLDS)
        assert verdict == OK

    def test_few_samples_cap_at_noisy(self):
        # A giant shift with fewer than MIN_WALL_SAMPLES per side cannot
        # establish significance: smoke suites run 3 reps.
        base = [1.0, 1.01, 0.99]
        cur = [5.0, 5.02, 4.98]
        assert len(base) < MIN_WALL_SAMPLES
        verdict, note = classify_wall(base, cur, THRESHOLDS)
        assert verdict == NOISY
        assert "samples" in note


class TestBootstrap:
    def test_deterministic_under_fixed_seed(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        first = bootstrap_ci_median(values, iters=500, seed=42)
        second = bootstrap_ci_median(values, iters=500, seed=42)
        assert first == second

    def test_interval_brackets_median(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.0]
        lo, hi = bootstrap_ci_median(values, iters=1000)
        assert lo <= 1.0 <= hi

    def test_singleton_degenerates(self):
        assert bootstrap_ci_median([3.0]) == (3.0, 3.0)

    def test_mad_of_constant_is_zero(self):
        assert mad([5.0, 5.0, 5.0]) == 0.0


# --- Report comparison (catalog drift + gating) ------------------------------


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
        assert [r.verdict for r in comparison] == [REGRESSED]
        assert comparison.gating_regressions
        assert comparison.exit_code() == 1
        assert "FAIL" in comparison.summary()

    def test_wall_regression_does_not_gate(self):
        base = _report(
            "smoke", {"b": {"wall_s": MetricSeries(WALL, [1.0, 1.01, 0.99, 1.0, 1.02])}}
        )
        cur = _report(
            "smoke", {"b": {"wall_s": MetricSeries(WALL, [3.0, 3.01, 2.99, 3.0, 3.02])}}
        )
        comparison = compare_reports(base, cur)
        assert [r.verdict for r in comparison] == [REGRESSED]
        assert not comparison.gating_regressions
        assert comparison.wall_regressions
        assert comparison.exit_code() == 0

    def test_catalog_drift_is_reported_not_gated(self):
        base = _report("smoke", {"old": {"c": MetricSeries(DETERMINISTIC, [1])}})
        cur = _report("smoke", {"new": {"c": MetricSeries(DETERMINISTIC, [1])}})
        verdicts = {r.benchmark: r.verdict for r in compare_reports(base, cur)}
        assert verdicts == {"new": NEW, "old": MISSING}
        assert compare_reports(base, cur).exit_code() == 0

    def test_kind_change_is_noisy(self):
        base = _report("smoke", {"b": {"m": MetricSeries(DETERMINISTIC, [1.0])}})
        cur = _report("smoke", {"b": {"m": MetricSeries(WALL, [1.0])}})
        (row,) = compare_reports(base, cur).rows
        assert row.verdict == NOISY


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
        assert restored.digest() == report.digest()

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


# --- Baseline store + git-sha overwrite guard --------------------------------


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
        object_id = store.record(report)
        assert store.load("smoke").to_dict() == report.to_dict()
        assert store.ref("smoke")["object"] == object_id
        assert (tmp_path / "baselines" / "objects" / f"{object_id}.json").exists()

    def test_missing_suite_error_names_remedy(self, tmp_path):
        with pytest.raises(PerfError, match="--record"):
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
        assert store.ref("smoke")["git_sha"] == "bbb"

    def test_unknown_sha_never_refuses(self, tmp_path, monkeypatch):
        # Either side missing a sha (legacy report, tarball checkout):
        # nothing to compare, the write proceeds. A record without an env
        # sha falls back to the checkout's HEAD, so pin that to None too.
        import repro.perf.baselines as baselines_mod

        monkeypatch.setattr(baselines_mod, "git_sha", lambda: None)
        store = BaselineStore(tmp_path)
        store.record(_stamped("smoke", None))
        store.record(_stamped("smoke", "aaa"))
        store.record(_stamped("smoke", None, cycles=1.0))

    def test_objects_are_content_addressed(self, tmp_path):
        store = BaselineStore(tmp_path)
        report = _stamped("smoke", "aaa")
        assert store.record(report) == store.record(report) == report.digest()[:16]

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


# --- The end-to-end gate (REPRO_PERF_INJECT drill) ---------------------------


class TestGateEndToEnd:
    def _target(self, probe: Probe) -> None:
        probe.record("cycles", 1000.0)
        with probe.time():
            pass

    def test_injected_regression_fails_gate(self, tmp_path, monkeypatch):
        store = BaselineStore(tmp_path)
        runner = Runner(mode="smoke")
        defs = [_defs(self._target)]
        store.record(runner.run(benchmarks=defs))
        # Clean re-run: gate passes.
        clean = compare_reports(store.load("smoke"), runner.run(benchmarks=defs))
        assert clean.exit_code() == 0
        # The documented drill: inject a 2x deterministic multiplier.
        monkeypatch.setenv("REPRO_PERF_INJECT", "2.0")
        injected = compare_reports(store.load("smoke"), runner.run(benchmarks=defs))
        assert injected.exit_code() == 1
        (gating,) = injected.gating_regressions
        assert gating.metric == "cycles" and gating.ratio == pytest.approx(2.0)

    def test_injected_report_cannot_become_baseline(self, monkeypatch):
        # The CLI refuses to record baselines produced with the inject
        # knob; the refusal keys off config["inject"], set by the runner.
        monkeypatch.setenv("REPRO_PERF_INJECT", "2.0")
        report = Runner(mode="smoke").run(benchmarks=[_defs(self._target)])
        assert report.config["inject"] == 2.0


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


# --- The committed baseline stays loadable -----------------------------------


class TestCommittedBaseline:
    def test_smoke_ref_resolves(self):
        # The repo commits perf/baselines/; CI's perf-gate compares
        # against it, so a corrupt store must fail here first.
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "perf" / "baselines"
        store = BaselineStore(root)
        report = store.load("smoke")
        assert report.suite == "smoke"
        kinds = {
            s.kind
            for b in report.benchmarks.values()
            for s in b.metrics.values()
        }
        assert DETERMINISTIC in kinds
