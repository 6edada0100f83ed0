"""Job execution on this host: one forked process per job, with
timeouts, retry, and cache integration.

Simulation jobs are seconds-to-minutes of pure Python, so every job runs
in its own fresh ``multiprocessing`` process (fork-started where
available) — :class:`JobProcess`, the launcher the ``repro.serve``
daemon uses too. A fresh process per job is what makes real per-job
timeouts (kill the process) and crash detection (the result pipe closes
without a result) simple and reliable. Results cross the process
boundary as serialized envelopes (:mod:`repro.runner.serialize`), the
same representation the cache stores, so pooled, cached, and
in-process execution are interchangeable bit-for-bit.

:func:`run_jobs` drives a :class:`~repro.runner.batch.Batch` (cache,
dedup, warm-start gate, settlement) under a bounded concurrency limit.
Fault policy:

- a **crashed** worker (killed, segfaulted, exited without reporting
  or part-way through sending its result) or a **timed-out** job is
  retried once in a fresh process; a second failure is terminal
  ("failed twice");
- a job that raises an ordinary Python exception is terminal at once —
  the simulation is deterministic, so a retry would fail identically;
- terminal failures are recorded and the rest of the batch still runs;
  :class:`~repro.runner.batch.CampaignJobError` is raised only after
  every job has settled;
- if worker processes cannot be started at all (no ``fork``/``spawn``,
  sandboxed CI, ``REPRO_JOBS=1``), execution falls back to the plain
  in-process loop;
- a :class:`KeyboardInterrupt` (or any other fatal error) kills and
  joins every live worker before re-raising — an interrupted campaign
  leaves no orphaned children behind.

Environment knobs: ``REPRO_JOBS`` (worker count; ``0`` = CPU count;
default ``1`` = in-process) and ``REPRO_JOB_TIMEOUT`` (seconds per job;
default: none), both read when :func:`run_jobs` runs.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Sequence

from repro.core.metrics import RunResult
from repro.runner.batch import Batch
from repro.runner.cache import ResultCache
from repro.runner.campaign import Job, execute_job, pop_warm_start_note
from repro.runner.progress import CampaignProgress, env_echo
from repro.runner.serialize import result_to_dict
from repro.settings import Settings
from repro.snapshot.prefix import PrefixStore, prefix_store_dir


def _mp_context():
    """Prefer fork (inherits runtime-registered workload kinds); fall
    back to the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _drop_inherited_sockets() -> None:
    """Close every socket this forked child inherited.

    A daemon's client connections must not stay open in its job
    processes, or a client whose connection the daemon closes never
    reads EOF. Each socket descriptor is pointed at ``/dev/null`` rather
    than closed, so a stale socket object that is later collected cannot
    close a reused descriptor number. The result pipe is an ``os.pipe``,
    not a socket, and stays open.
    """
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(fd_dir)]
            break
        except OSError:
            continue
    else:  # pragma: no cover - no descriptor listing on this platform
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            if fd <= 2 or fd == devnull:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:  # closed since the listing (the listing's own fd)
                pass
    finally:
        os.close(devnull)


def _job_main(job: Job, conn: Connection, env: Settings | None) -> None:
    """Job-process entry: run the job, ship the serialized result."""
    _drop_inherited_sockets()
    if env is not None:
        env.apply()
    try:
        envelope = result_to_dict(execute_job(job))
        conn.send(("ok", envelope, pop_warm_start_note()))
    except BaseException as exc:  # report *everything* before dying
        conn.send(("err", type(exc).__name__, str(exc), traceback.format_exc()))
    finally:
        conn.close()


class JobProcess:
    """One job running in its own freshly forked process.

    The child runs under the parent's environment as it is at fork time
    or, given ``env``, under exactly those settings
    (:meth:`~repro.settings.Settings.apply`): a serve daemon hands each
    job its own configuration that way, because several daemons can
    share one process environment. :meth:`outcome` reads the child's one
    message: ``("ok", envelope, warm_note)``, ``("err", name, text,
    traceback)``, or ``("crash", reason)`` when the child died without
    reporting. Raises ``OSError`` when the process cannot be started.
    """

    def __init__(self, job: Job, env: Settings | None = None) -> None:
        ctx = _mp_context()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_job_main, args=(job, child_conn, env), daemon=True
        )
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.started = time.monotonic()

    def outcome(self) -> tuple:
        """Block until the child reports or dies, then reap it."""
        return self.reap(self.receive())

    def receive(self) -> tuple | None:
        """Read the child's message and close the pipe; ``None`` when the
        child died before or while sending (EOF, or a truncated frame:
        ``OSError``)."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None
        finally:
            self.conn.close()

    def reap(self, message: tuple | None) -> tuple:
        """Join the child; a missing message becomes ``("crash", ...)``."""
        self.process.join()
        if message is None:
            return ("crash", f"worker exited (code {self.process.exitcode})")
        return message

    def kill(self) -> None:
        """SIGKILL the child and reap it (a timeout, deadline, or abort).
        Not SIGTERM: a child forked from an asyncio daemon inherits its
        signal handlers and would ignore it."""
        if self.process.exitcode is None:
            self.process.kill()
        self.conn.close()
        self.process.join(timeout=5)


@dataclass
class _Running:
    proc: JobProcess
    attempt: int
    deadline: float | None


def run_jobs(
    jobs: Sequence[Job],
    *,
    max_workers: int | None = None,
    cache: ResultCache | None = None,
    timeout_s: float | None = None,
    progress: CampaignProgress | None = None,
) -> list[RunResult]:
    """Execute every job; returns results aligned with ``jobs``.

    Cache hits are satisfied without executing anything; fresh results
    are written back under their fingerprint. With ``max_workers=1`` the
    whole batch runs in-process, byte-identical to calling
    :func:`~repro.runner.campaign.execute_job` in a loop. Terminal
    failures raise :class:`~repro.runner.batch.CampaignJobError` once the
    whole batch has settled.
    """
    env = Settings.from_env()
    if max_workers is None:
        max_workers = env.max_workers()
    if timeout_s is None:
        timeout_s = env.job_timeout_s
    if progress is None:
        progress = CampaignProgress(len(jobs), echo=env_echo())
    if progress.workers is None:
        progress.workers = max_workers

    batch = Batch(jobs, cache=cache, progress=progress)
    root = prefix_store_dir(env)
    if root is not None:
        batch.gate_prefixes(PrefixStore(root))
    pending: Sequence[int] = batch.ready
    if pending and max_workers > 1:
        pending = _run_pooled(batch, max_workers, timeout_s)
    _run_in_process(batch, pending)
    return batch.finish()


def _run_in_process(batch: Batch, pending: Sequence[int]) -> None:
    """The plain loop: ``REPRO_JOBS=1``, pool unavailable, or leftovers."""
    queue = deque(pending)
    while queue:
        index = queue.popleft()
        began = time.monotonic()
        try:
            result = execute_job(batch.jobs[index])
        except Exception as exc:
            pop_warm_start_note()
            released = batch.fail(
                index, f"raised {type(exc).__name__}: {exc}", traceback.format_exc()
            )
        else:
            released = batch.succeed(
                index,
                result=result,
                elapsed=time.monotonic() - began,
                note=pop_warm_start_note(),
            )
        # Released gate followers run next, right behind their leader.
        queue.extendleft(reversed(released))


def _run_pooled(batch: Batch, max_workers: int, timeout_s: float | None) -> list[int]:
    """Drain the batch through job processes, at most ``max_workers`` at
    a time. Returns the indices that must run in-process instead (the
    pool could not start a process at all)."""
    queue = deque(batch.ready)
    running: dict[int, _Running] = {}

    def launch(index: int, attempt: int) -> bool:
        try:
            proc = JobProcess(batch.jobs[index])
        except OSError:
            return False
        deadline = proc.started + timeout_s if timeout_s else None
        running[index] = _Running(proc, attempt, deadline)
        return True

    def crash_or_retry(index: int, reason: str) -> None:
        attempt = running.pop(index).attempt
        label = batch.jobs[index].describe()
        if attempt == 0:
            batch.progress.job_retried(label, reason)
            if launch(index, attempt=1):
                return
            queue.appendleft(index)  # pragma: no cover - fork stopped working
        else:
            queue.extend(batch.fail(index, f"failed twice: {reason}"))

    try:
        while queue or running:
            while queue and len(running) < max_workers:
                index = queue.popleft()
                if not launch(index, attempt=0):
                    # Cannot start processes here: finish what runs, then
                    # hand everything unstarted to the in-process loop
                    # (which releases still-held followers as it goes).
                    queue.appendleft(index)
                    while running:
                        _wait_one(batch, running, queue, crash_or_retry)
                    return list(queue)
            _wait_one(batch, running, queue, crash_or_retry)
    except BaseException:
        # Kill everyone first, then reap: a second ^C landing mid-reap
        # still finds every child already dead.
        for entry in running.values():
            entry.proc.process.kill()
        for entry in running.values():
            entry.proc.kill()
        running.clear()
        raise
    return []


def _wait_one(
    batch: Batch,
    running: dict[int, _Running],
    queue: deque,
    crash_or_retry,
) -> None:
    """Block briefly; settle every job that finished, crashed, or timed
    out, queueing the gate followers that settling releases."""
    now = time.monotonic()
    wait_for = 0.25
    for entry in running.values():
        if entry.deadline is not None:
            wait_for = min(wait_for, max(0.0, entry.deadline - now))
    ready = set(connection_wait([e.proc.conn for e in running.values()], timeout=wait_for))
    now = time.monotonic()
    for index, entry in list(running.items()):
        proc = entry.proc
        if proc.conn in ready:
            message = proc.outcome()
            if message[0] == "crash":
                crash_or_retry(index, message[1])
                continue
            del running[index]
            if message[0] == "ok":
                released = batch.succeed(
                    index,
                    envelope=message[1],
                    elapsed=now - proc.started,
                    note=message[2],
                )
            else:
                _, name, text, trace = message
                released = batch.fail(index, f"raised {name}: {text}", trace)
            queue.extend(released)
        elif entry.deadline is not None and now >= entry.deadline:
            proc.kill()
            crash_or_retry(index, f"timeout after {now - proc.started:.1f}s")
        elif proc.process.exitcode is not None and not proc.conn.poll():
            # Dead, yet its pipe shows neither data nor EOF: another
            # process still holds the write end. Do not wait for it.
            proc.kill()
            crash_or_retry(index, f"worker exited (code {proc.process.exitcode})")
