"""Campaign progress reporting: per-job lines, ETA, and the cache-hit
summary.

Silent by default (the benchmark harness runs under pytest's capture);
set ``REPRO_PROGRESS=1`` — or pass an explicit ``echo`` callable — to
stream one line per finished job with a running ETA. The final
:meth:`CampaignProgress.summary` is what ``python -m repro campaign``
prints, and its ``cache-hits=N fresh=M`` tail is machine-parseable (the
CI smoke job greps it).
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Callable

from repro.settings import Settings

Echo = Callable[[str], None]


def _default_echo(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def env_echo() -> Echo | None:
    """The echo callable implied by ``REPRO_PROGRESS`` (None = silent)."""
    if Settings.from_env().progress:
        return _default_echo
    return None


class CampaignProgress:
    """Counts job outcomes and estimates time remaining.

    ETA extrapolates from the mean wall time of *fresh* (non-cached)
    jobs only — cache hits are near-free and would otherwise make the
    estimate absurdly optimistic.
    """

    def __init__(
        self,
        total: int,
        echo: Echo | None = None,
        workers: int | None = None,
    ) -> None:
        self.total = total
        self.echo = echo
        #: Worker processes draining the queue; the pool fills this in
        #: (when left None) so the ETA reflects parallelism. 1 = serial.
        self.workers = workers
        self.done = 0
        self.cache_hits = 0
        self.fresh = 0
        self.deduped = 0
        self.retries = 0
        self.failures = 0
        self.prefix_hits = 0
        self.prefix_captures = 0
        self._fresh_seconds = 0.0
        self._started = time.monotonic()

    # --- Event hooks (called by the pool) --------------------------------

    def job_finished(
        self,
        label: str,
        *,
        cached: bool,
        elapsed: float,
        warm: str | None = None,
    ) -> None:
        self.done += 1
        if cached:
            self.cache_hits += 1
        else:
            self.fresh += 1
            self._fresh_seconds += elapsed
        if warm == "hit":
            self.prefix_hits += 1
        elif warm == "capture":
            self.prefix_captures += 1
        if self.echo is not None:
            origin = "cache" if cached else f"{elapsed:.2f}s"
            if warm is not None:
                origin += f", prefix {warm}"
            eta = self.eta_seconds()
            eta_text = f" eta {eta:.0f}s" if eta is not None else ""
            self.echo(
                f"[{self.done}/{self.total}] {label} ({origin}){eta_text}"
            )

    def job_deduped(self, label: str) -> None:
        """A job that never ran: its fingerprint matched another job in
        the same batch, so it received a copy of that job's result."""
        self.done += 1
        self.deduped += 1
        if self.echo is not None:
            self.echo(f"[{self.done}/{self.total}] {label} (dedup)")

    def job_retried(self, label: str, reason: str) -> None:
        self.retries += 1
        if self.echo is not None:
            self.echo(f"[retry] {label}: {reason}")

    def job_failed(self, label: str, reason: str) -> None:
        """A job reached a terminal failure. It is *done* — nothing will
        run it again — so it counts toward ``done`` (else ``summary()``
        stays short of ``total`` forever and the ETA never reaches zero);
        ``failures`` keeps the separate tally."""
        self.done += 1
        self.failures += 1
        if self.echo is not None:
            self.echo(f"[fail] {label}: {reason}")

    # --- Derived ---------------------------------------------------------

    def mean_fresh_seconds(self) -> float | None:
        if not self.fresh:
            return None
        return self._fresh_seconds / self.fresh

    def eta_seconds(self) -> float | None:
        """Projected seconds to finish the remaining jobs: 0.0 once every
        job has settled (finished, deduped, or terminally failed), None
        until a fresh job has completed to calibrate on.

        The remaining jobs drain ``workers`` at a time, so the projection
        is mean x ceil(remaining / workers) — not remaining x mean, which
        overestimates by ~the worker count under ``REPRO_JOBS=N``.
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        mean = self.mean_fresh_seconds()
        if mean is None:
            return None
        workers = max(1, self.workers or 1)
        return mean * math.ceil(remaining / workers)

    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started

    def hit_ratio(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0

    def summary(self) -> str:
        parts = [
            f"{self.done}/{self.total} jobs in {self.elapsed_seconds():.1f}s",
        ]
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.failures:
            parts.append(f"{self.failures} failed")
        mean = self.mean_fresh_seconds()
        if mean is not None:
            parts.append(f"mean {mean:.2f}s/fresh job")
        tail = f" | cache-hits={self.cache_hits} fresh={self.fresh}"
        if self.deduped:
            tail += f" deduped={self.deduped}"
        if self.prefix_hits or self.prefix_captures:
            tail += (
                f" prefix-hits={self.prefix_hits}"
                f" prefix-captures={self.prefix_captures}"
            )
        return ", ".join(parts) + tail

    def as_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "fresh": self.fresh,
            "deduped": self.deduped,
            "retries": self.retries,
            "failures": self.failures,
            "prefix_hits": self.prefix_hits,
            "prefix_captures": self.prefix_captures,
            "elapsed_seconds": self.elapsed_seconds(),
        }
