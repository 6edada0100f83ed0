"""The exact behaviour gate between two perf reports.

Deterministic series (simulated cycles, bus transactions, bytes) are
bit-identical by construction, so they are compared exactly: every
sample of the current series must equal the baseline's single value.
A deterministic metric that changed value, changed kind, went missing
or is new fails the gate, whichever way it moved. Wall-clock series are
host timings: they are shown beside the baseline median with their
ratio and never judged (docs/BENCHMARKING.md).

The comparison covers every baseline benchmark matching the current
run's ``--filter`` pattern (``config.pattern``), so a filtered run never
fails on benchmarks it did not run.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.stats import median
from repro.perf.registry import WALL
from repro.perf.report import MetricSeries, PerfReport

#: Verdicts for deterministic rows; wall rows carry ``None``.
OK = "ok"
CHANGED = "changed"
NEW = "new"
MISSING = "missing"


def _median(series: MetricSeries | None) -> float | None:
    return median(series.samples) if series is not None and series.samples else None


def _values(series: MetricSeries) -> str:
    return ", ".join(f"{v:.15g}" for v in sorted(set(series.samples))) or "no samples"


@dataclass
class MetricComparison:
    """One metric's row: the medians on each side and, for a
    deterministic metric, its verdict."""

    benchmark: str
    metric: str
    kind: str
    #: ``None`` for wall-clock rows, which are shown but never judged.
    verdict: str | None
    baseline_median: float | None = None
    current_median: float | None = None
    note: str = ""

    @property
    def ratio(self) -> float | None:
        if self.baseline_median and self.current_median is not None:
            return self.current_median / self.baseline_median
        return None

    @property
    def fails(self) -> bool:
        return self.verdict not in (None, OK)

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "kind": self.kind,
            "verdict": self.verdict,
            "baseline_median": self.baseline_median,
            "current_median": self.current_median,
            "ratio": self.ratio,
            "note": self.note,
        }


def compare_series(
    benchmark: str,
    metric: str,
    baseline: MetricSeries | None,
    current: MetricSeries | None,
) -> MetricComparison:
    """The row for one metric present on at least one side."""
    shown = current if current is not None else baseline
    assert shown is not None
    row = MetricComparison(
        benchmark,
        metric,
        shown.kind,
        None,
        baseline_median=_median(baseline),
        current_median=_median(current),
    )
    if all(s is None or s.kind == WALL for s in (baseline, current)):
        return row
    if baseline is None:
        row.verdict, row.note = NEW, "the baseline lacks this metric"
    elif current is None:
        row.verdict, row.note = MISSING, "absent from the current run"
    elif baseline.kind != current.kind:
        row.verdict, row.note = CHANGED, f"kind {baseline.kind} -> {current.kind}"
    else:
        expected = set(baseline.samples)
        if len(expected) == 1 and set(current.samples) == expected:
            row.verdict = OK
        else:
            row.verdict = CHANGED
            row.note = f"{_values(baseline)} -> {_values(current)}"
    return row


@dataclass
class Comparison:
    """Every metric's row for a (baseline, current) report pair."""

    baseline_suite: str
    current_suite: str
    pattern: str | None = None
    rows: list[MetricComparison] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rows)

    @property
    def failures(self) -> list[MetricComparison]:
        return [r for r in self.rows if r.fails]

    def exit_code(self) -> int:
        """The machine-readable gate: 0 when every deterministic metric
        matches, 1 otherwise (errors exit 2 via the CLI)."""
        return 1 if self.failures else 0

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            key = row.verdict or WALL
            out[key] = out.get(key, 0) + 1
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline_suite": self.baseline_suite,
            "current_suite": self.current_suite,
            "pattern": self.pattern,
            "counts": self.counts(),
            "exit_code": self.exit_code(),
            "rows": [r.to_dict() for r in self.rows],
        }

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[v]} {v}"
            for v in (CHANGED, MISSING, NEW, OK, WALL)
            if counts.get(v)
        ]
        verdict = "FAIL" if self.failures else "PASS"
        return f"{verdict}: {', '.join(parts) or 'no metrics'}"


def compare_reports(baseline: PerfReport, current: PerfReport) -> Comparison:
    """Compare ``current`` against the baseline benchmarks its pattern
    covers."""
    pattern = current.config.get("pattern")
    covered = {
        name: bench
        for name, bench in baseline.benchmarks.items()
        if pattern is None or fnmatch.fnmatch(name, pattern)
    }
    comparison = Comparison(baseline.suite, current.suite, pattern)
    for name in sorted(set(covered) | set(current.benchmarks)):
        base = covered[name].metrics if name in covered else {}
        cur = current.benchmarks[name].metrics if name in current.benchmarks else {}
        for metric in sorted(set(base) | set(cur)):
            comparison.rows.append(
                compare_series(name, metric, base.get(metric), cur.get(metric))
            )
    return comparison
