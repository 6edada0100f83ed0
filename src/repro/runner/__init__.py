"""``repro.runner`` — the parallel, cached experiment campaign engine.

The benchmark harness, the ``python -m repro campaign`` CLI, and any
future sweep all submit work the same way: describe jobs declaratively
(:class:`~repro.runner.campaign.Job` /
:class:`~repro.runner.campaign.CampaignSpec`), then hand them to
:func:`run_jobs` or :func:`run_campaign`. The engine takes care of

- **caching** — content-addressed on-disk results keyed by workload
  spec, config, and simulator code version (:mod:`repro.runner.cache`);
- **one batch core** — fingerprint, cache, dedup, warm-start gate and
  settlement shared by every executor (:mod:`repro.runner.batch`);
- **parallelism** — a fault-tolerant fork-per-job pool with per-job
  timeouts and graceful in-process fallback (:mod:`repro.runner.pool`);
- **determinism** — jobs carry explicit seeds and run one-workload-per-
  process, so pooled, cached, and serial execution agree byte-for-byte
  (:mod:`repro.runner.serialize` round-trips losslessly);
- **visibility** — per-job progress, ETA, and the cache hit/fresh
  summary (:mod:`repro.runner.progress`).

See docs/RUNNER.md for the campaign spec format and cache layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import RunResult
from repro.runner.batch import CampaignJobError
from repro.runner.cache import (
    ResultCache,
    code_fingerprint,
    default_cache_dir,
    job_fingerprint,
)
from repro.runner.campaign import (
    CampaignSpec,
    Job,
    WorkloadSpec,
    build_config,
    execute_job,
    job_from_dict,
    register_workload,
    registered_workloads,
    stable_seed,
)
from repro.runner.executor import Executor, PoolExecutor
from repro.runner.pool import run_jobs
from repro.runner.progress import CampaignProgress, env_echo

__all__ = [
    "CampaignJobError",
    "CampaignProgress",
    "CampaignResult",
    "CampaignSpec",
    "Executor",
    "Job",
    "PoolExecutor",
    "ResultCache",
    "WorkloadSpec",
    "build_config",
    "code_fingerprint",
    "default_cache_dir",
    "env_echo",
    "execute_job",
    "job_fingerprint",
    "job_from_dict",
    "register_workload",
    "registered_workloads",
    "run_campaign",
    "run_jobs",
    "stable_seed",
]


@dataclass
class CampaignResult:
    """A finished campaign: jobs, their results, and the run stats."""

    spec: CampaignSpec
    jobs: list[Job]
    results: list[RunResult]
    progress: CampaignProgress

    def __len__(self) -> int:
        return len(self.jobs)


def run_campaign(
    spec: CampaignSpec,
    *,
    max_workers: int | None = None,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    progress: CampaignProgress | None = None,
    executor: Executor | None = None,
) -> CampaignResult:
    """Expand a campaign spec and execute its full job matrix.

    ``executor`` picks the backend (default: the local pool); passing
    both ``executor`` and ``max_workers`` is an error — worker count is
    the pool backend's knob, configured on :class:`PoolExecutor`.
    """
    jobs = spec.expand()
    if progress is None:
        progress = CampaignProgress(len(jobs), echo=env_echo())
    if executor is None:
        executor = PoolExecutor(max_workers=max_workers)
    elif max_workers is not None:
        raise ValueError(
            "run_campaign: pass max_workers or an explicit executor, not both"
        )
    results = executor.run(
        jobs,
        cache=cache,
        timeout_s=timeout_s,
        progress=progress,
    )
    return CampaignResult(spec=spec, jobs=jobs, results=results, progress=progress)
