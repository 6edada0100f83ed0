"""The simulation service daemon.

An asyncio event loop accepts newline-delimited JSON requests on a Unix
or TCP socket (:mod:`repro.serve.protocol`) and serves ``run`` requests
on ``workers`` execution slots, each running one job at a time in a
fresh forked process — the :class:`~repro.runner.pool.JobProcess` the
local campaign pool uses:

- **cache first** — a request whose fingerprint is already in the
  content-addressed :class:`~repro.runner.cache.ResultCache` is answered
  straight from the stored envelope, forking nothing;
- **dedup** — identical fingerprints *in flight* collapse onto the one
  executing task; followers wait on its future and are answered with
  ``deduped: true`` when the leader's envelope lands;
- **admission control** — the run queue is bounded; a request arriving
  past the bound is rejected immediately with ``overloaded`` and a
  ``retry_after_s`` hint instead of queueing unboundedly;
- **deadlines** — a per-request ``deadline_s`` expires the request in
  queue (cheap) or kills its job process mid-run;
- **supervision** — a job process that crashes or overruns the job
  timeout is killed and the job retried once in a new process (the same
  fault policy as :mod:`repro.runner.pool`); the job's own exception is
  terminal; a second failure is an error response, not a dead daemon;
- **graceful drain** — SIGTERM/SIGINT (or the ``shutdown`` verb) stops
  accepting connections, finishes in-flight work within the drain
  timeout, answers everything still queued with ``shutting-down``, and
  exits 0.

Every decision increments a :class:`~repro.obs.MetricsRegistry` counter
or histogram; the ``health`` and ``stats`` verbs expose them live.

Every job process is forked from the fully imported daemon, so a job
pays no interpreter or import start-up; it closes every client socket
it inherited, so a connection the daemon closes reads EOF at once.

Environment knobs: ``REPRO_SERVE_WORKERS`` (concurrent job processes,
default 2), ``REPRO_SERVE_QUEUE`` (admission bound, default 64),
``REPRO_SERVE_JOB_TIMEOUT`` (seconds per job process; default none).
CLI flags override each (see ``python -m repro serve --help``).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import RevokerKind
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.runner.cache import ResultCache, job_fingerprint
from repro.runner.campaign import Job, job_from_dict, registered_workloads
from repro.runner.pool import JobProcess
from repro.runner.serialize import SerializationError
from repro.serve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    E_BAD_REQUEST,
    E_DEADLINE,
    E_INTERNAL,
    E_INVALID_JOB,
    E_JOB_FAILED,
    E_NOT_FOUND,
    E_OVERLOADED,
    E_OVERSIZED,
    E_SHUTTING_DOWN,
    E_UNKNOWN_VERB,
    KNOWN_VERBS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.settings import Settings


@dataclass
class ServeConfig:
    """Daemon configuration; ``None`` fields fall back to env knobs."""

    socket_path: str | None = None
    host: str | None = None
    port: int = 0
    workers: int | None = None
    queue_bound: int | None = None
    job_timeout_s: float | None = None
    drain_timeout_s: float = 10.0
    cache_dir: str | Path | None = None
    no_cache: bool = False
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    #: Directory for the warm-start prefix store (``$REPRO_PREFIX_DIR``
    #: when unset; see docs/WARMSTART.md). Jobs then pre-warm hot
    #: prefixes organically: the first fresh run of a sweep group
    #: captures the shared warmup checkpoint and every sibling request —
    #: same workload, different revoker — forks from it instead of
    #: cold-simulating.
    prefix_dir: str | Path | None = None

    def __post_init__(self) -> None:
        env = Settings.from_env()
        if self.prefix_dir is None and env.prefix_dir is not None:
            self.prefix_dir = str(env.prefix_dir)
        if self.socket_path and self.host:
            raise ConfigError("serve: give a unix socket path or host/port, not both")
        if not self.socket_path and not self.host:
            raise ConfigError("serve: a unix socket path or a host/port is required")
        if self.workers is None:
            self.workers = env.serve_workers
        if self.queue_bound is None:
            self.queue_bound = env.serve_queue
        if self.job_timeout_s is None:
            self.job_timeout_s = env.serve_job_timeout_s
        if self.workers < 1:
            raise ConfigError(f"serve: workers must be >= 1, got {self.workers}")
        if self.queue_bound < 1:
            raise ConfigError(
                f"serve: queue bound must be >= 1, got {self.queue_bound}"
            )
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigError(
                f"serve: job timeout must be > 0, got {self.job_timeout_s}"
            )


@dataclass
class _Task:
    """One admitted fresh execution; followers share its futures list."""

    fingerprint: str
    job: Job
    deadline: float | None
    enqueued: float
    futures: list[asyncio.Future] = field(default_factory=list)


class SimulationServer:
    """The serving daemon (one instance per process)."""

    def __init__(self, config: ServeConfig) -> None:
        self.cfg = config
        self.metrics = MetricsRegistry()
        self.cache: ResultCache | None = (
            None if config.no_cache else ResultCache(config.cache_dir)
        )
        self.bound_port: int | None = None
        self._queue: asyncio.Queue = None  # type: ignore[assignment]
        self._inflight: dict[str, _Task] = {}
        self._executing = 0
        #: One task per execution slot, each running a job at a time.
        self._slots: list[asyncio.Task] = []
        #: The settings every job process runs under (set at start).
        self._job_env: Settings | None = None
        self._draining = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._started = 0.0

    # --- Lifecycle --------------------------------------------------------

    def run(self) -> int:
        """Blocking entry point: serve until drained. Returns 0."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # no signal handler (non-main thread)
            pass
        return 0

    def request_shutdown(self) -> None:
        """Begin the graceful drain (call from the event-loop thread)."""
        if self._shutdown is not None and not self._shutdown.is_set():
            self._shutdown.set()

    def shutdown_threadsafe(self) -> None:
        """Begin the drain from any thread (tests drive this)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        self._queue = asyncio.Queue()
        self._started = loop.time()
        # The environment at start plus this daemon's prefix dir, handed
        # to each job process instead of exported, so daemons sharing one
        # process keep their own stores.
        prefix_dir = self.cfg.prefix_dir
        self._job_env = Settings.from_env().replace(
            prefix_dir=Path(prefix_dir) if prefix_dir is not None else None,
        )
        self._slots = [
            asyncio.ensure_future(self._slot_loop())
            for _ in range(self.cfg.workers)
        ]

        if self.cfg.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.cfg.socket_path)
            server = await asyncio.start_unix_server(
                self._handle_client,
                path=self.cfg.socket_path,
                limit=self.cfg.max_line_bytes,
            )
            where = self.cfg.socket_path
        else:
            server = await asyncio.start_server(
                self._handle_client,
                host=self.cfg.host,
                port=self.cfg.port,
                limit=self.cfg.max_line_bytes,
            )
            self.bound_port = server.sockets[0].getsockname()[1]
            where = f"{self.cfg.host}:{self.bound_port}"
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # Signals bind only from the main thread; the threaded test
            # harness drives shutdown_threadsafe() instead.
            loop.add_signal_handler(signal.SIGTERM, self.request_shutdown)
            loop.add_signal_handler(signal.SIGINT, self.request_shutdown)

        self._log(
            f"listening on {where} "
            f"(pid {os.getpid()}, {self.cfg.workers} job slots, "
            f"queue bound {self.cfg.queue_bound}, "
            f"cache {'off' if self.cache is None else self.cache.root})"
        )
        await self._shutdown.wait()
        self._draining = True
        self._log(
            f"draining: queue {self._queue.qsize()}, "
            f"in-flight {self._executing}"
        )
        server.close()
        await server.wait_closed()

        deadline = loop.time() + self.cfg.drain_timeout_s
        while (self._queue.qsize() or self._executing) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Whatever is still queued past the drain window gets a clean
        # rejection rather than silence.
        abandoned = 0
        while True:
            try:
                task = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            abandoned += 1
            self._resolve(
                task,
                ("error", E_SHUTTING_DOWN, "daemon drained before this job ran"),
            )
        # Stop every slot: idle ones wait on the queue, busy ones are past
        # the drain window and kill their job process on cancellation.
        for slot in self._slots:
            slot.cancel()
        await asyncio.wait(self._slots)
        for task in list(self._inflight.values()):
            abandoned += 1
            self._resolve(
                task, ("error", E_SHUTTING_DOWN, "daemon drained mid-job")
            )
        # Let handlers flush final responses, then close their streams
        # and wait for them to finish — leaving them to be cancelled by
        # asyncio.run() would log spurious CancelledError tracebacks.
        await asyncio.sleep(0.05)
        for writer in list(self._connections):
            writer.close()
        handlers = [t for t in self._handlers if not t.done()]
        if handlers:
            _, late = await asyncio.wait(handlers, timeout=2.0)
            for handler in late:  # pragma: no cover - stuck handler
                handler.cancel()
            if late:  # pragma: no cover - stuck handler
                await asyncio.wait(late, timeout=1.0)
        if self.cfg.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.cfg.socket_path)
        served = self.metrics.counter("serve.requests").value
        self._log(
            f"drained: {served} requests served"
            + (f", {abandoned} abandoned" if abandoned else "")
        )

    def _log(self, message: str) -> None:
        stamp = time.strftime("%H:%M:%S")
        print(f"[serve {stamp}] {message}", file=sys.stderr, flush=True)

    # --- Connection handling ---------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("serve.connections").inc()
        self._connections.add(writer)
        current = asyncio.current_task()
        if current is not None:
            self._handlers.add(current)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit. The frame boundary
                    # is lost, so answer and close this connection.
                    self.metrics.counter("serve.oversized").inc()
                    await self._send(
                        writer,
                        error_response(
                            None,
                            E_OVERSIZED,
                            f"request line over {self.cfg.max_line_bytes} "
                            "bytes; closing connection",
                        ),
                    )
                    break
                if not line:
                    break  # EOF: client closed cleanly
                if not line.endswith(b"\n"):
                    break  # client vanished mid-frame: clean close
                if not line.strip():
                    continue
                response = await self._dispatch(line)
                if not await self._send(writer, response):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to clean up beyond finally
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let one connection kill the daemon
            self.metrics.counter("serve.internal_errors").inc()
            self._log(f"connection handler error: {exc!r}")
            with contextlib.suppress(Exception):
                await self._send(
                    writer, error_response(None, E_INTERNAL, repr(exc))
                )
        finally:
            if current is not None:
                self._handlers.discard(current)
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> bool:
        try:
            writer.write(encode(response))
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            return False

    async def _dispatch(self, line: bytes) -> dict[str, Any]:
        self.metrics.counter("serve.requests").inc()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.metrics.counter("serve.protocol_errors").inc()
            return error_response(None, E_BAD_REQUEST, str(exc))
        if request.verb == "ping":
            return ok_response(request.id, verb="ping", protocol=PROTOCOL_VERSION)
        if request.verb == "run":
            return await self._handle_run(request)
        if request.verb == "health":
            return self._handle_health(request.id)
        if request.verb == "stats":
            return self._handle_stats(request.id)
        if request.verb == "list":
            return self._handle_list(request.id)
        if request.verb == "prefix-fetch":
            return await self._handle_prefix_fetch(request)
        if request.verb == "prefix-put":
            return await self._handle_prefix_put(request)
        if request.verb == "shutdown":
            self.request_shutdown()
            return ok_response(request.id, verb="shutdown", draining=True)
        self.metrics.counter("serve.unknown_verbs").inc()
        return error_response(
            request.id,
            E_UNKNOWN_VERB,
            f"unknown verb {request.verb!r}; known: {', '.join(KNOWN_VERBS)}",
        )

    # --- The run verb -----------------------------------------------------

    async def _handle_run(self, request: Request) -> dict[str, Any]:
        loop = self._loop
        assert loop is not None
        began = loop.time()
        if self._draining:
            return error_response(
                request.id, E_SHUTTING_DOWN, "daemon is draining"
            )
        deadline_s = request.payload.get("deadline_s")
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool)
            or deadline_s <= 0
        ):
            return error_response(
                request.id,
                E_BAD_REQUEST,
                f"deadline_s must be a positive number, got {deadline_s!r}",
            )
        try:
            job = job_from_dict(request.payload.get("job"))
        except ConfigError as exc:
            self.metrics.counter("serve.invalid_jobs").inc()
            return error_response(request.id, E_INVALID_JOB, str(exc))
        if job.workload.kind not in registered_workloads():
            self.metrics.counter("serve.invalid_jobs").inc()
            return error_response(
                request.id,
                E_INVALID_JOB,
                f"unknown workload kind {job.workload.kind!r}; registered: "
                f"{', '.join(registered_workloads())}",
            )
        fingerprint = job_fingerprint(job)

        if self.cache is not None:
            envelope = self.cache.get_envelope(fingerprint)
            if envelope is not None:
                envelope.pop("job", None)
                self.metrics.counter("serve.cache_hits").inc()
                return self._run_ok(
                    request.id, envelope, began, fingerprint,
                    cached=True, deduped=False,
                )

        leader = self._inflight.get(fingerprint)
        if leader is not None:
            future: asyncio.Future = loop.create_future()
            leader.futures.append(future)
            self.metrics.counter("serve.dedup_hits").inc()
            outcome = await future
            return self._run_outcome(
                request.id, outcome, began, fingerprint, deduped=True
            )

        if self._queue.qsize() >= self.cfg.queue_bound:
            self.metrics.counter("serve.overloaded").inc()
            return error_response(
                request.id,
                E_OVERLOADED,
                f"admission queue full ({self.cfg.queue_bound} queued)",
                retry_after_s=self._retry_after(),
            )

        future = loop.create_future()
        task = _Task(
            fingerprint=fingerprint,
            job=job,
            deadline=(began + deadline_s) if deadline_s is not None else None,
            enqueued=began,
            futures=[future],
        )
        self._inflight[fingerprint] = task
        self._queue.put_nowait(task)
        outcome = await future
        return self._run_outcome(
            request.id, outcome, began, fingerprint, deduped=False
        )

    def _run_outcome(
        self,
        request_id: Any,
        outcome: tuple,
        began: float,
        fingerprint: str,
        *,
        deduped: bool,
    ) -> dict[str, Any]:
        if outcome[0] == "ok":
            return self._run_ok(
                request_id, outcome[1], began, fingerprint,
                cached=False, deduped=deduped,
            )
        _, code, message = outcome
        self.metrics.counter("serve.run_errors").inc()
        return error_response(request_id, code, message, fingerprint=fingerprint)

    def _run_ok(
        self,
        request_id: Any,
        envelope: dict[str, Any],
        began: float,
        fingerprint: str,
        *,
        cached: bool,
        deduped: bool,
    ) -> dict[str, Any]:
        assert self._loop is not None
        service_s = self._loop.time() - began
        self.metrics.counter("serve.run_ok").inc()
        if not cached and not deduped:
            self.metrics.counter("serve.fresh_results").inc()
        self.metrics.histogram("serve.service_us").observe(
            max(0.0, service_s * 1e6)
        )
        return ok_response(
            request_id,
            verb="run",
            result=envelope,
            cached=cached,
            deduped=deduped,
            fingerprint=fingerprint,
            service_s=round(service_s, 6),
        )

    def _resolve(self, task: _Task, outcome: tuple) -> None:
        self._inflight.pop(task.fingerprint, None)
        for future in task.futures:
            if not future.done():
                future.set_result(outcome)

    def _retry_after(self) -> float:
        """How long an over-admission client should back off.

        Estimate: backlog x mean execution time, spread over the job slots
        *currently alive* — slots not yet started (or already stopped by a
        drain) must not zero the divisor. Before any sample exists the
        mean falls back to half the configured job timeout (a job is
        admitted expecting to finish within it), or 0.5 s when no timeout
        is configured.
        """
        exec_hist = self.metrics.histogram("serve.exec_us")
        if exec_hist.count:
            mean_s = exec_hist.mean / 1e6
        elif self.cfg.job_timeout_s is not None:
            mean_s = self.cfg.job_timeout_s / 2
        else:
            mean_s = 0.5
        backlog = self._queue.qsize() + self._executing
        workers = max(1, self._alive_slots())
        return round(max(0.05, mean_s * backlog / workers), 3)

    def _alive_slots(self) -> int:
        return sum(1 for slot in self._slots if not slot.done())

    # --- Job execution ---------------------------------------------------

    async def _slot_loop(self) -> None:
        assert self._loop is not None
        while True:
            task = await self._queue.get()
            now = self._loop.time()
            if task.deadline is not None and now >= task.deadline:
                self.metrics.counter("serve.deadline_misses").inc()
                self._resolve(
                    task,
                    (
                        "error",
                        E_DEADLINE,
                        f"deadline expired after {now - task.enqueued:.3f}s in queue",
                    ),
                )
                continue
            self.metrics.histogram("serve.queue_us").observe(
                max(0.0, (now - task.enqueued) * 1e6)
            )
            self._executing += 1
            try:
                await self._execute(task)
            finally:
                self._executing -= 1

    async def _execute(self, task: _Task) -> None:
        """Run one job in a fresh process; a crash or timeout is retried
        once in another, a deadline or the job's own exception is final."""
        assert self._loop is not None
        describe = task.job.describe()
        for attempt in (0, 1):
            timeout = self.cfg.job_timeout_s
            deadline_is_binding = False
            if task.deadline is not None:
                left = task.deadline - self._loop.time()
                if timeout is None or left <= timeout:
                    timeout, deadline_is_binding = left, True
            began = self._loop.time()
            try:
                proc = JobProcess(task.job, self._job_env)
            except OSError as exc:
                self._resolve(task, ("error", E_INTERNAL, f"cannot fork a job: {exc}"))
                return
            try:
                message = await asyncio.wait_for(_outcome(proc), timeout=timeout)
            except asyncio.TimeoutError:
                proc.kill()
                kind = "deadline" if deadline_is_binding else "timeout"
                what = "deadline expired" if deadline_is_binding else "timed out"
                detail = f"{what} after {self._loop.time() - began:.3f}s"
            except BaseException:  # cancelled by the drain: take the child down
                proc.kill()
                raise
            else:
                if message[0] != "crash":
                    self._finish(task, message, self._loop.time() - began)
                    return
                kind, detail = "crash", message[1]
            # The job process is gone (killed or died): count its
            # replacement, then apply the fault policy.
            self.metrics.counter("serve.worker_restarts").inc()
            if kind == "deadline":
                self.metrics.counter("serve.deadline_misses").inc()
                self._resolve(task, ("error", E_DEADLINE, detail))
                return
            self.metrics.counter(
                "serve.worker_crashes" if kind == "crash" else "serve.worker_timeouts"
            ).inc()
            if attempt == 0:
                self.metrics.counter("serve.retries").inc()
                self._log(f"retrying {describe}: {detail}")
        self._log(f"job {describe} failed twice: {detail}")
        self._resolve(task, ("error", E_JOB_FAILED, f"job failed twice: {detail}"))

    def _finish(self, task: _Task, message: tuple, elapsed: float) -> None:
        """Answer a job process's report: its envelope or its exception."""
        self.metrics.histogram("serve.exec_us").observe(max(0.0, elapsed * 1e6))
        if message[0] == "ok":
            envelope = message[1]
            if self.cache is not None:
                try:
                    self.cache.put_envelope(task.fingerprint, envelope)
                except (OSError, SerializationError) as exc:
                    self._log(f"cache write failed for {task.job.describe()}: {exc}")
            self._resolve(task, ("ok", envelope))
            return
        _, name, text, _trace = message
        self.metrics.counter("serve.job_failures").inc()
        code = E_INVALID_JOB if name == "ConfigError" else E_JOB_FAILED
        self._log(f"job {task.job.describe()} raised {name}: {text}")
        self._resolve(task, ("error", code, f"{name}: {text}"))

    # --- Introspection verbs ---------------------------------------------

    def _handle_health(self, request_id: Any) -> dict[str, Any]:
        assert self._loop is not None
        return ok_response(
            request_id,
            verb="health",
            status="draining" if self._draining else "ok",
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            workers={
                "configured": self.cfg.workers,
                "alive": self._alive_slots(),
                "restarts": self.metrics.counter("serve.worker_restarts").value,
            },
            queue_depth=self._queue.qsize(),
            queue_bound=self.cfg.queue_bound,
            in_flight=self._executing,
            uptime_s=round(self._loop.time() - self._started, 3),
        )

    def _handle_stats(self, request_id: Any) -> dict[str, Any]:
        assert self._loop is not None
        snapshot = self.metrics.to_dict()
        counters = snapshot["counters"]
        hits = counters.get("serve.cache_hits", 0)
        dedup = counters.get("serve.dedup_hits", 0)
        fresh = counters.get("serve.fresh_results", 0)
        answered = hits + dedup + fresh
        service = self.metrics.histogram("serve.service_us")
        derived: dict[str, Any] = {
            "cache_hit_rate": round(hits / answered, 4) if answered else 0.0,
            "dedup_rate": round(dedup / answered, 4) if answered else 0.0,
            "service_p50_us": (
                round(service.quantile(0.5), 1) if service.count else None
            ),
            "service_p99_us": (
                round(service.quantile(0.99), 1) if service.count else None
            ),
        }
        if self.cfg.prefix_dir is not None:
            from repro.snapshot.prefix import PrefixStore

            derived["warm_prefixes"] = PrefixStore(self.cfg.prefix_dir).entries()
        return ok_response(
            request_id,
            verb="stats",
            stats=snapshot,
            derived=derived,
            queue_depth=self._queue.qsize(),
            in_flight=self._executing,
            uptime_s=round(self._loop.time() - self._started, 3),
        )

    def _handle_list(self, request_id: Any) -> dict[str, Any]:
        from repro.cli._common import _workload_names

        return ok_response(
            request_id,
            verb="list",
            workload_kinds=list(registered_workloads()),
            workloads=_workload_names(),
            strategies=[
                {"name": kind.value, "provides_safety": kind.provides_safety}
                for kind in RevokerKind
            ],
        )

    # --- The prefix transfer verbs (the dist coordinator's channel) -------

    def _prefix_request_key(self, request: Request) -> str | dict[str, Any]:
        if self.cfg.prefix_dir is None:
            return error_response(
                request.id,
                E_BAD_REQUEST,
                "daemon has no prefix store (start it with --prefix-dir)",
            )
        from repro.snapshot.prefix import valid_prefix_key

        key = request.payload.get("key")
        if not valid_prefix_key(key):
            return error_response(
                request.id,
                E_BAD_REQUEST,
                "prefix verbs need a 'key' of letters, digits, '-' and '_'",
            )
        return key

    async def _handle_prefix_fetch(self, request: Request) -> dict[str, Any]:
        import base64

        from repro.snapshot.prefix import PrefixStore

        key = self._prefix_request_key(request)
        if isinstance(key, dict):
            return key
        store = PrefixStore(self.cfg.prefix_dir)
        assert self._loop is not None
        blob = await self._loop.run_in_executor(None, store.get, key)
        if blob is None:
            self.metrics.counter("serve.prefix_misses").inc()
            return error_response(
                request.id, E_NOT_FOUND, f"no prefix {key} in the store"
            )
        self.metrics.counter("serve.prefix_fetches").inc()
        return ok_response(
            request.id,
            verb="prefix-fetch",
            key=key,
            blob=base64.b64encode(blob).decode("ascii"),
        )

    async def _handle_prefix_put(self, request: Request) -> dict[str, Any]:
        import base64
        import binascii

        from repro.snapshot.prefix import PrefixStore

        key = self._prefix_request_key(request)
        if isinstance(key, dict):
            return key
        encoded = request.payload.get("blob")
        if not isinstance(encoded, str) or not encoded:
            return error_response(
                request.id, E_BAD_REQUEST, "prefix-put needs a base64 'blob'"
            )
        try:
            blob = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError) as exc:
            return error_response(
                request.id, E_BAD_REQUEST, f"blob is not valid base64: {exc}"
            )
        store = PrefixStore(self.cfg.prefix_dir)
        assert self._loop is not None
        stored = await self._loop.run_in_executor(
            None, store.put_if_absent, key, blob
        )
        self.metrics.counter("serve.prefix_puts").inc()
        return ok_response(
            request.id, verb="prefix-put", key=key, stored=stored
        )


async def _outcome(proc: JobProcess) -> tuple:
    """Await a job process's report, then its exit, without blocking the
    event loop on either: the result pipe turns readable when the child
    sends or dies, its sentinel once it has exited."""
    await _readable(proc.conn.fileno())
    message = proc.receive()
    await _readable(proc.process.sentinel)
    return proc.reap(message)


async def _readable(fd: int) -> None:
    loop = asyncio.get_running_loop()
    ready: asyncio.Future = loop.create_future()

    def _ready() -> None:
        if not ready.done():
            ready.set_result(None)

    loop.add_reader(fd, _ready)
    try:
        await ready
    finally:
        loop.remove_reader(fd)
