"""The versioned perf-report envelope (schema v1).

A :class:`PerfReport` is the JSON shape the serve load generator
(``repro serve bench``) writes. Schema::

    {
      "schema": 1,
      "kind": "perf-report",
      "suite": "serve",
      "env": {"python": ..., "numpy": ..., "machine": ...,
              "cpu_count": ..., "git_sha": ...},
      "config": {...},
      "benchmarks": {
        "<name>": {
          "config": {...},
          "metrics": {
            "<metric>": {"kind": "deterministic"|"wall", "samples": [...]}
          }
        }
      },
      "detail": {...}        # free-form producer extras (the raw
    }                        # serve sections)

``deterministic`` series are simulated quantities (cycles, bus
transactions, bytes) that must be bit-identical across hosts; ``wall``
series are host timings. :func:`check_overwrite` guards committed
records (this envelope, the golden corpus, the figure harness's
results) against being overwritten from another commit.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import PerfError

#: Bump when the envelope changes shape; readers refuse unknown versions.
SCHEMA_VERSION = 1

#: Metric kind for bit-identical simulated quantities.
DETERMINISTIC = "deterministic"
#: Metric kind for host wall-clock timings.
WALL = "wall"


def git_sha() -> str | None:
    """The current commit sha: ``$GITHUB_SHA`` in CI, ``git rev-parse``
    locally, ``None`` when neither is available (e.g. a tarball)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else None


def collect_env() -> dict[str, Any]:
    """Pinned environment metadata for a report (provenance, not gating)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
    }


@dataclass
class MetricSeries:
    """One metric's repetition samples."""

    kind: str
    samples: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in (DETERMINISTIC, WALL):
            raise PerfError(f"unknown metric kind {self.kind!r}")
        self.samples = [float(v) for v in self.samples]

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "samples": list(self.samples)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricSeries":
        try:
            return cls(kind=data["kind"], samples=list(data["samples"]))
        except (KeyError, TypeError) as exc:
            raise PerfError(f"bad metric series: {exc}") from exc


@dataclass
class BenchmarkResult:
    """One benchmark's metrics plus its working-set configuration."""

    metrics: dict[str, MetricSeries] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": dict(self.config),
            "metrics": {
                name: series.to_dict()
                for name, series in sorted(self.metrics.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchmarkResult":
        return cls(
            metrics={
                name: MetricSeries.from_dict(series)
                for name, series in data.get("metrics", {}).items()
            },
            config=dict(data.get("config", {})),
        )


@dataclass
class PerfReport:
    """The schema-v1 report envelope."""

    suite: str
    env: dict[str, Any] = field(default_factory=collect_env)
    config: dict[str, Any] = field(default_factory=dict)
    benchmarks: dict[str, BenchmarkResult] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "perf-report",
            "suite": self.suite,
            "env": dict(self.env),
            "config": dict(self.config),
            "benchmarks": {
                name: b.to_dict() for name, b in sorted(self.benchmarks.items())
            },
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfReport":
        if data.get("kind") != "perf-report":
            raise PerfError(
                "not a perf report (missing kind='perf-report'; pre-v1 "
                "reports are no longer read: re-record them)"
            )
        version = data.get("schema")
        if version != SCHEMA_VERSION:
            raise PerfError(
                f"perf report schema {version!r} != supported {SCHEMA_VERSION}"
            )
        try:
            return cls(
                suite=data["suite"],
                env=dict(data.get("env", {})),
                config=dict(data.get("config", {})),
                benchmarks={
                    name: BenchmarkResult.from_dict(b)
                    for name, b in data.get("benchmarks", {}).items()
                },
                detail=dict(data.get("detail", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise PerfError(f"bad perf report: {exc}") from exc

    # --- Persistence -------------------------------------------------------

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "PerfReport":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise PerfError(f"cannot read perf report: {exc}") from exc
        return cls.loads(text)

    @classmethod
    def loads(cls, text: str) -> "PerfReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PerfError(f"perf report is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise PerfError("perf report is not a JSON object")
        return cls.from_dict(data)


def recorded_sha(data: Mapping[str, Any]) -> str | None:
    """The git sha a report JSON (v1 or legacy) was recorded at, if any."""
    env = data.get("env")
    if isinstance(env, Mapping):
        sha = env.get("git_sha")
        return sha if isinstance(sha, str) else None
    return None


def check_overwrite(
    old_sha: str | None,
    current_sha: str | None,
    what: str,
    force: bool = False,
) -> None:
    """Refuse to clobber something recorded at a different commit unless
    ``force``.

    Only a *definite* mismatch refuses — when either side has no sha
    (legacy report, tarball checkout) there is nothing to compare and the
    write proceeds.
    """
    if force or current_sha is None:
        return
    if old_sha is not None and old_sha != current_sha:
        raise PerfError(
            f"{what} was recorded at commit {old_sha[:12]} but HEAD is "
            f"{current_sha[:12]}; refusing to overwrite it silently "
            "(pass --force / set REPRO_BENCH_FORCE=1 to re-record)"
        )
