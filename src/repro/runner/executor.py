"""The executor seam: campaign execution as a swappable backend.

:func:`~repro.runner.pool.run_jobs` bakes in one execution strategy —
the local fork-per-job process pool. The :class:`Executor` protocol
lifts that choice out of the campaign layer: anything that can take a
job list and return results aligned with it (cache hits satisfied
locally, fresh results written back) is a campaign backend.

Two implementations ship:

- :class:`PoolExecutor` — the local pool, a thin wrapper over
  :func:`run_jobs`; the default everywhere and the reference semantics
  (bit-for-bit identical to serial in-process execution);
- :class:`~repro.dist.DistributedExecutor` — shards the batch across
  remote ``repro.serve`` daemons by consistent-hashing each job's
  fingerprint (docs/DIST.md).

Both drive the same :class:`~repro.runner.batch.Batch` (fingerprint,
local cache, in-batch dedup, warm-start prefix gate, settlement), so the
contract every backend must honor — pinned by the pool and dist test
suites — holds by construction:

- results align index-for-index with ``jobs``;
- a local ``cache`` is consulted first and fresh results are written
  back to it, so a re-run is all cache hits regardless of backend;
- duplicate fingerprints within one batch execute once;
- ``progress`` (when given) sees every job exactly once — as a cache
  hit, a fresh completion, a dedup, or a terminal failure — so
  ``progress.done`` reaches ``len(jobs)`` even on error paths;
- terminal per-job failures raise
  :class:`~repro.runner.batch.CampaignJobError` only after every other
  job has settled (no lost work behind the first failure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.core.metrics import RunResult
from repro.runner.pool import run_jobs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.cache import ResultCache
    from repro.runner.campaign import Job
    from repro.runner.progress import CampaignProgress


@runtime_checkable
class Executor(Protocol):
    """Anything that can execute a campaign's job batch."""

    def run(
        self,
        jobs: Sequence["Job"],
        *,
        cache: "ResultCache | None" = None,
        timeout_s: float | None = None,
        progress: "CampaignProgress | None" = None,
    ) -> list[RunResult]:
        """Execute every job; return results aligned with ``jobs``."""
        ...


class PoolExecutor:
    """The local process-pool backend (the :func:`run_jobs` semantics).

    ``max_workers=None`` defers to ``REPRO_JOBS`` at run time; an
    explicit value pins it (CLI flag > env > default).
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def run(
        self,
        jobs: Sequence["Job"],
        *,
        cache: "ResultCache | None" = None,
        timeout_s: float | None = None,
        progress: "CampaignProgress | None" = None,
    ) -> list[RunResult]:
        return run_jobs(
            jobs,
            max_workers=self.max_workers,
            cache=cache,
            timeout_s=timeout_s,
            progress=progress,
        )
