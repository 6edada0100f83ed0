"""Continuous benchmarking: registry, runner, baselines, exact gate.

The paper's claims are relative simulated costs — bus traffic, pause
cycles, sweep cycles — so the deterministic metrics that carry them are
recorded per suite and any change to them is caught rather than
tolerated:

- :mod:`repro.perf.registry` — the ``@benchmark`` catalog and
  :class:`Probe` (deterministic vs wall-clock metric kinds);
- :mod:`repro.perf.targets` — built-in micro-targets (vector sweep scan,
  cache span streaming, scheduler step, serialize round-trip, snapshot
  save/restore) plus traced end-to-end runs;
- :mod:`repro.perf.runner` — warmup/repetition control, env pinning,
  :class:`~repro.perf.report.PerfReport` (schema v1) emission;
- :mod:`repro.perf.baselines` — one committed report per suite,
  ``perf/baselines/<suite>.json``;
- :mod:`repro.perf.regression` — the exact gate: every deterministic
  sample must equal the baseline's value; wall-clock series are shown
  and never judged.

``python -m repro bench run/compare/list`` is the CLI; the CI
``perf-gate`` job fails on any changed, missing or new deterministic
metric (docs/BENCHMARKING.md).
"""

from __future__ import annotations

from repro.perf.baselines import BaselineStore
from repro.perf.registry import (
    DETERMINISTIC,
    WALL,
    BenchmarkDef,
    Probe,
    benchmark,
    catalog,
    select,
)
from repro.perf.regression import (
    CHANGED,
    MISSING,
    NEW,
    OK,
    Comparison,
    MetricComparison,
    compare_reports,
)
from repro.perf.report import (
    SCHEMA_VERSION,
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
    collect_env,
    git_sha,
    recorded_sha,
)
from repro.perf.runner import Runner

__all__ = [
    "CHANGED",
    "DETERMINISTIC",
    "MISSING",
    "NEW",
    "OK",
    "SCHEMA_VERSION",
    "WALL",
    "BaselineStore",
    "BenchmarkDef",
    "BenchmarkResult",
    "Comparison",
    "MetricComparison",
    "MetricSeries",
    "PerfReport",
    "Probe",
    "Runner",
    "benchmark",
    "catalog",
    "check_overwrite",
    "collect_env",
    "compare_reports",
    "git_sha",
    "recorded_sha",
    "select",
]
