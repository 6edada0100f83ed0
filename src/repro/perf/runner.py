"""The benchmark runner: warmup/repetition control over the catalog.

``Runner.run`` executes a selection of registered targets, times each
repetition (targets that never open a ``probe.time()`` region get
whole-call wall timing), collects the probes' metric series, pins the
environment metadata (python, numpy, CPU, git sha) and emits a
:class:`~repro.perf.report.PerfReport`.

Deterministic series are sanity-checked: a "deterministic" metric whose
repetitions disagree is reported under ``detail["nondeterministic"]``
(the exact gate also fails it), so the drift is named rather than
silently averaged away.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from repro.errors import PerfError
from repro.perf.registry import (
    DETERMINISTIC,
    WALL,
    BenchmarkDef,
    Probe,
    select,
)
from repro.perf.report import BenchmarkResult, MetricSeries, PerfReport

#: Optional progress sink: (benchmark name, seconds, metric count).
Progress = Callable[[str, float, int], None]


class Runner:
    """Executes registered benchmarks into a versioned report."""

    def __init__(
        self,
        mode: str = "smoke",
        reps: int | None = None,
        warmup: int | None = None,
    ) -> None:
        if mode not in ("smoke", "full"):
            raise PerfError(f"runner mode must be smoke or full, got {mode!r}")
        if reps is not None and reps < 1:
            raise PerfError(f"reps must be >= 1, got {reps}")
        if warmup is not None and warmup < 0:
            raise PerfError(f"warmup must be >= 0, got {warmup}")
        self.mode = mode
        self.reps = reps
        self.warmup = warmup

    def run_one(self, bench: BenchmarkDef) -> BenchmarkResult:
        reps = self.reps if self.reps is not None else bench.reps_for(self.mode)
        warmup = self.warmup if self.warmup is not None else bench.warmup
        series: dict[str, MetricSeries] = {}
        for rep in range(warmup + reps):
            probe = Probe(mode=self.mode)
            began = time.perf_counter()
            bench.fn(probe)
            elapsed = time.perf_counter() - began
            if not any(kind == WALL for kind, _ in probe.metrics.values()):
                probe.metrics["wall_s"] = (WALL, elapsed)
            if rep < warmup:
                continue
            for name, (kind, value) in probe.metrics.items():
                found = series.get(name)
                if found is None:
                    found = series[name] = MetricSeries(kind=kind, samples=[])
                elif found.kind != kind:
                    raise PerfError(
                        f"{bench.name}/{name}: metric kind changed between "
                        f"repetitions ({found.kind} -> {kind})"
                    )
                found.samples.append(value)
        lengths = {name: len(s.samples) for name, s in series.items()}
        if len(set(lengths.values())) > 1:
            raise PerfError(
                f"{bench.name}: metrics recorded in some repetitions but "
                f"not others: {lengths}"
            )
        return BenchmarkResult(
            metrics=series,
            config={
                "mode": self.mode,
                "reps": reps,
                "warmup": warmup,
                **bench.config,
            },
        )

    def run(
        self,
        benchmarks: Sequence[BenchmarkDef] | None = None,
        suite: str = "smoke",
        pattern: str | None = None,
        progress: Progress | None = None,
    ) -> PerfReport:
        if benchmarks is None:
            benchmarks = select(suite=suite, pattern=pattern)
        report = PerfReport(
            suite=suite,
            config={
                "mode": self.mode,
                "reps_override": self.reps,
                "warmup_override": self.warmup,
                "pattern": pattern,
            },
        )
        nondeterministic: list[str] = []
        for bench in benchmarks:
            began = time.perf_counter()
            result = self.run_one(bench)
            took = time.perf_counter() - began
            report.benchmarks[bench.name] = result
            for name, s in result.metrics.items():
                if s.kind == DETERMINISTIC and len(set(s.samples)) > 1:
                    nondeterministic.append(f"{bench.name}/{name}")
            if progress is not None:
                progress(bench.name, took, len(result.metrics))
        if nondeterministic:
            report.detail["nondeterministic"] = sorted(nondeterministic)
        return report
