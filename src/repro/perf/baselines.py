"""The committed baselines: one report per suite, ``perf/baselines/<suite>.json``.

``repro bench run --record`` writes a suite's file and ``repro bench
compare`` (or ``run --compare``) reads it. Re-recording a baseline that
was recorded at a different commit refuses unless ``force`` is given, so
a stale working tree cannot overwrite it silently; a deliberate
re-record goes with a reason in CHANGES.md (docs/BENCHMARKING.md).
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import PerfError
from repro.perf.report import PerfReport, check_overwrite, git_sha

#: Default baseline directory, relative to the repository root / CWD.
DEFAULT_ROOT = "perf/baselines"


class BaselineStore:
    """Read and record the per-suite baseline files under ``root``."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_ROOT)

    def path(self, suite: str) -> Path:
        return self.root / f"{suite}.json"

    def load(self, suite: str) -> PerfReport:
        """The suite's committed baseline report."""
        path = self.path(suite)
        if not path.exists():
            raise PerfError(
                f"no baseline for suite {suite!r} at {path} (run `repro bench "
                f"run --suite {suite} --record` to create one)"
            )
        report = PerfReport.load(path)
        if report.suite != suite:
            raise PerfError(f"{path} holds suite {report.suite!r}, not {suite!r}")
        return report

    def record(self, report: PerfReport, force: bool = False) -> Path:
        """Write ``report`` as its suite's baseline and return the path.

        Raises :class:`PerfError` when the existing baseline was recorded
        at a different git sha and ``force`` is false.
        """
        path = self.path(report.suite)
        if path.exists() and not force:
            check_overwrite(
                PerfReport.load(path).env.get("git_sha"),
                report.env.get("git_sha") or git_sha(),
                f"baseline {path}",
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        report.save(path)
        return path
