"""One campaign batch: the executor-independent half of running jobs.

Both campaign backends — the local process pool
(:func:`~repro.runner.pool.run_jobs`) and the multi-node coordinator
(:class:`~repro.dist.DistributedExecutor`) — drive a :class:`Batch`. It
owns everything that does not depend on *where* a job runs:

1. **fingerprint** every job (:func:`~repro.runner.cache.job_fingerprint`);
2. **local cache** — hits settle at once, nothing executes;
3. **in-batch dedup** — duplicate fingerprints collapse onto the first
   occurrence (the leader); the rest receive copies of its result;
4. **warm-start prefix gate** (:meth:`Batch.gate_prefixes`) — leaders
   sharing a not-yet-stored prefix are held behind the first of their
   group until it settles, so the shared warmup is simulated once;
5. **settle** — :meth:`Batch.succeed` writes the cache, reports
   progress and copies the result to duplicates; :meth:`Batch.fail`
   records a terminal failure. Either returns the gate followers it
   released;
6. :meth:`Batch.finish` raises :class:`CampaignJobError` only once every
   job has settled, so no work is lost behind the first failure.

The executor decides only how and where the :attr:`Batch.ready` indices
(and whatever settling releases) run, and its retry policy. A batch is
not thread-safe; an executor settling from several threads holds its
own lock around these calls.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.metrics import RunResult
from repro.errors import ReproError
from repro.runner.cache import ResultCache, job_fingerprint
from repro.runner.campaign import Job, prefix_eligible
from repro.runner.progress import CampaignProgress, env_echo
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.snapshot.prefix import PrefixStore, prefix_key


class CampaignJobError(ReproError):
    """A campaign job failed terminally (its own exception, a repeated
    crash or timeout, or no node left to run it).

    ``results`` aligns with the batch's jobs: every job that finished
    keeps its result, and a failed job holds ``None``."""

    def __init__(self, message: str, results: Sequence[RunResult | None] = ()) -> None:
        super().__init__(message)
        self.results = list(results)


class Batch:
    """The shared state of one executor call over ``jobs``."""

    def __init__(
        self,
        jobs: Sequence[Job],
        *,
        cache: ResultCache | None = None,
        progress: CampaignProgress | None = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.progress = progress or CampaignProgress(len(jobs), echo=env_echo())
        self.fingerprints = [job_fingerprint(job) for job in jobs]
        self.results: list[RunResult | None] = [None] * len(jobs)
        self.cache_hits = 0
        #: Leader index -> indices that receive a copy of its result.
        self.followers: dict[int, list[int]] = {}
        #: Gate leader index -> its group's prefix key.
        self.gate_keys: dict[int, str] = {}
        #: Gate leader index -> leaders held until it settles.
        self._held: dict[int, list[int]] = {}
        self._failures: list[tuple[int, str, str]] = []
        #: Leaders to execute now, in job order.
        self.ready: list[int] = []
        leaders: dict[str, int] = {}
        for i, fingerprint in enumerate(self.fingerprints):
            if cache is not None:
                hit = cache.get(fingerprint)
                if hit is not None:
                    self.results[i] = hit
                    self.cache_hits += 1
                    self.progress.job_finished(
                        jobs[i].describe(), cached=True, elapsed=0.0
                    )
                    continue
            leader = leaders.get(fingerprint)
            if leader is None:
                leaders[fingerprint] = i
                self.ready.append(i)
            else:
                self.followers.setdefault(leader, []).append(i)
        #: Leaders not yet settled (held ones included).
        self.outstanding = len(self.ready)

    def gate_prefixes(self, store: PrefixStore | None = None) -> None:
        """Hold each warm-start group behind its first ready leader.

        Ready leaders that share a prefix key must not all cold-start at
        once: that would re-simulate the shared warmup once per worker.
        The first of each group stays ready (its run captures the
        prefix); the rest leave :attr:`ready` until it settles. Groups
        whose prefix ``store`` already holds need no gate — every member
        forks at once.
        """
        groups: dict[str, list[int]] = {}
        for i in self.ready:
            if not prefix_eligible(self.jobs[i]):
                continue
            key = prefix_key(self.jobs[i])
            if store is not None and key in store:
                continue
            groups.setdefault(key, []).append(i)
        for key, (leader, *rest) in groups.items():
            if rest:
                self.gate_keys[leader] = key
                self._held[leader] = rest
        held = {i for rest in self._held.values() for i in rest}
        self.ready = [i for i in self.ready if i not in held]

    # --- Settlement -------------------------------------------------------

    def succeed(
        self,
        index: int,
        *,
        result: RunResult | None = None,
        envelope: Mapping[str, Any] | None = None,
        elapsed: float,
        cached: bool = False,
        note: str | None = None,
    ) -> list[int]:
        """Settle leader ``index`` with its result (a :class:`RunResult`,
        a serialized envelope, or both). Returns the gate followers this
        releases."""
        if result is None:
            assert envelope is not None
            result = result_from_dict(envelope)
        self.results[index] = result
        job = self.jobs[index]
        if self.cache is not None:
            if envelope is not None:
                self.cache.put_envelope(self.fingerprints[index], envelope, job=job)
            else:
                self.cache.put(self.fingerprints[index], result, job=job)
        self.progress.job_finished(
            job.describe(), cached=cached, elapsed=elapsed, warm=note
        )
        followers = self.followers.get(index, ())
        if followers and envelope is None:
            envelope = result_to_dict(result)
        for dup in followers:
            # Each duplicate gets its own equal object, exactly as if it
            # had crossed a worker pipe itself.
            self.results[dup] = result_from_dict(envelope)
            self.progress.job_deduped(self.jobs[dup].describe())
        self.outstanding -= 1
        return self._held.pop(index, [])

    def fail(self, index: int, reason: str, detail: str = "") -> list[int]:
        """Settle leader ``index`` (and its duplicates) as a terminal
        failure. A failed gate leader still releases its group: the held
        members run cold rather than wait on a prefix that will never be
        captured."""
        for i in (index, *self.followers.get(index, ())):
            self._failures.append((i, reason, detail))
            self.progress.job_failed(self.jobs[i].describe(), reason)
        self.outstanding -= 1
        return self._held.pop(index, [])

    @property
    def done(self) -> bool:
        return self.outstanding <= 0

    def finish(self) -> list[RunResult]:
        """Results aligned with ``jobs``; raises :class:`CampaignJobError`
        if any job failed."""
        if self._failures:
            index, reason, detail = self._failures[0]
            message = (
                f"{len(self._failures)} of {len(self.jobs)} jobs failed "
                f"terminally; first: {self.jobs[index].describe()}: {reason}"
            )
            raise CampaignJobError(
                f"{message}\n{detail}" if detail else message, self.results
            )
        assert all(r is not None for r in self.results)
        return self.results  # type: ignore[return-value]
