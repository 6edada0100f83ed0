"""The multi-node campaign coordinator.

One :class:`DistributedExecutor` drives a campaign batch across N
``repro.serve`` daemons over the normal NDJSON wire protocol (Unix or
TCP sockets — docs/SERVING.md). It is a drop-in campaign backend (the
:class:`~repro.runner.executor.Executor` protocol): results come back
bit-identical to a local run, aligned with the job list, written into
the same local result cache.

How a batch flows (docs/DIST.md has the full topology discussion):

1. **The shared batch core.** A :class:`~repro.runner.batch.Batch`
   fingerprints the jobs, answers local cache hits (they never touch the
   network), collapses duplicate fingerprints to one dispatch, holds
   warm-start groups behind their leader, and settles every outcome —
   the same core the local pool drives.
2. **Consistent-hash routing.** Every remaining job routes by its
   content fingerprint through a :class:`~repro.dist.ring.HashRing`, so
   reruns land on the same nodes and each node's result cache and
   warm-start prefix store stay hot for *its* shard of the keyspace.
3. **Per-node dispatchers.** One dispatcher thread per live node drains
   that node's queue through a blocking :class:`ServeClient`; overload
   rejections honor the server's ``retry_after_s`` hint.
4. **Failover.** A node that stops answering (connection refused/reset,
   response timeout, draining) is marked dead and removed from the
   ring; its queued jobs rehash to the survivors and its in-flight job
   is re-dispatched with its attempt count bumped. A job that fails
   ``max_attempts`` times — or finds no live node — becomes a terminal
   failure, raised as :class:`~repro.runner.batch.CampaignJobError` only
   after every other job settles. A
   *deterministic* job error (the daemon's ``job-failed`` /
   ``invalid-job`` codes) is terminal immediately — the simulation is
   deterministic, so a retry would fail identically.
5. **Rejoin.** A monitor thread keeps pinging dead nodes; one that
   answers again is re-absorbed into the ring and its dispatcher
   restarted, so a bounced daemon picks work back up mid-campaign.
6. **Warm-start replication.** With ``warm_start=True`` the batch's
   prefix gate (docs/WARMSTART.md) holds each group behind one leader;
   once the leader settles the coordinator pulls the captured prefix off
   its node (``prefix-fetch``) and pushes it to every other live node
   (``prefix-put``) before releasing the group — exactly one node pays
   the warmup, every node serves the group warm.

The coordinator itself keeps only what is specific to many nodes: ring
routing, node failover, and prefix replication.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.metrics import RunResult
from repro.errors import DistError
from repro.obs.metrics import MetricsRegistry
from repro.runner.batch import Batch
from repro.runner.cache import ResultCache
from repro.runner.campaign import Job
from repro.runner.progress import CampaignProgress
from repro.runner.serialize import result_from_dict
from repro.serve.client import (
    Overloaded,
    RequestFailed,
    ServeClient,
    ServeError,
    ServeTimeout,
    ServerUnavailable,
)
from repro.serve.protocol import E_INVALID_JOB, E_JOB_FAILED

#: Error codes that are properties of the *job*, not the node: the
#: simulation is deterministic, so re-dispatching elsewhere would fail
#: identically. Terminal on first sight.
_DETERMINISTIC_CODES = (E_JOB_FAILED, E_INVALID_JOB)

#: Queue sentinel that makes a dispatcher thread exit.
_STOP = object()


@dataclass(frozen=True)
class NodeSpec:
    """One daemon endpoint: a unix socket path or a host:port."""

    name: str
    socket_path: str | None = None
    host: str | None = None
    port: int | None = None

    @classmethod
    def parse(cls, token: str) -> "NodeSpec":
        """Parse one ``--nodes`` entry.

        Anything with a ``/`` (or a ``.sock`` suffix) is a unix socket
        path; otherwise ``host:port``. A bare hostname is an error —
        there is no default port.
        """
        token = token.strip()
        if not token:
            raise DistError("empty node entry in the node list")
        if "/" in token or token.endswith(".sock"):
            return cls(name=token, socket_path=token)
        host, sep, port_text = token.rpartition(":")
        if not sep or not host:
            raise DistError(
                f"node {token!r} is neither a unix socket path nor host:port"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise DistError(f"node {token!r} has a non-integer port") from None
        if not 0 < port < 65536:
            raise DistError(f"node {token!r} port out of range")
        return cls(name=token, host=host, port=port)

    def client(
        self,
        *,
        request_timeout: float = 120.0,
        retries: int = 2,
        retry_overloaded: bool = False,
    ) -> ServeClient:
        return ServeClient(
            socket_path=self.socket_path,
            host=self.host,
            port=self.port,
            request_timeout=request_timeout,
            retries=retries,
            retry_overloaded=retry_overloaded,
        )


def parse_nodes(text: str | Sequence[str]) -> list[NodeSpec]:
    """Parse a ``--nodes`` value (comma-separated, or an iterable of
    tokens) into specs; duplicates are an error (they would double the
    ring weight of one daemon)."""
    tokens = text.split(",") if isinstance(text, str) else list(text)
    specs = [NodeSpec.parse(t) for t in tokens if t.strip()]
    if not specs:
        raise DistError("the node list is empty")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise DistError(f"duplicate node in the node list: {names}")
    return specs


class _Node:
    """Coordinator-side state for one daemon."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.queue: "queue.Queue[Any]" = queue.Queue()
        self.alive = False
        self.thread: threading.Thread | None = None
        self.stats: dict[str, Any] | None = None


class DistributedExecutor:
    """Shard campaign batches across ``repro.serve`` daemons.

    Satisfies the :class:`~repro.runner.executor.Executor` protocol, so
    ``run_campaign(spec, executor=DistributedExecutor(nodes))`` — or
    ``python -m repro campaign spec.json --nodes a.sock,b.sock`` — is
    all it takes to go multi-node.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec] | str,
        *,
        warm_start: bool = False,
        max_attempts: int = 3,
        request_timeout_s: float | None = None,
        connect_timeout_s: float = 5.0,
        rejoin_interval_s: float = 2.0,
    ) -> None:
        specs = parse_nodes(nodes) if isinstance(nodes, str) else list(nodes)
        if not specs:
            raise DistError("the node list is empty")
        if max_attempts < 1:
            raise DistError(f"max_attempts must be >= 1, got {max_attempts}")
        self.specs = specs
        self.warm_start = warm_start
        self.max_attempts = max_attempts
        self.request_timeout_s = request_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.rejoin_interval_s = rejoin_interval_s
        #: Coordinator-side counters (dispatches, failovers, rejoins...);
        #: per-node daemon stats land in :attr:`node_stats` after a run.
        self.metrics = MetricsRegistry()
        self.node_stats: dict[str, dict[str, Any]] = {}

        # Per-run state (re-initialized at the top of run()).
        self._ring = None
        self._nodes: dict[str, _Node] = {}
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._batch: Batch | None = None
        self._attempts: dict[int, int] = {}
        self._timeout_s: float | None = None

    # --- Public API -------------------------------------------------------

    def ping_all(self, timeout: float = 5.0) -> dict[str, bool]:
        """One liveness probe per node (the ``dist status`` CLI)."""
        alive: dict[str, bool] = {}
        for spec in self.specs:
            client = spec.client(request_timeout=timeout, retries=0)
            try:
                with client:
                    client.ping(timeout=timeout)
                alive[spec.name] = True
            except (ServeError, OSError):
                alive[spec.name] = False
        return alive

    def run(
        self,
        jobs: Sequence[Job],
        *,
        cache: ResultCache | None = None,
        timeout_s: float | None = None,
        progress: CampaignProgress | None = None,
    ) -> list[RunResult]:
        """Execute every job across the node ring; results align with
        ``jobs``. See the module docstring for the full semantics."""
        from repro.dist.ring import HashRing

        self._timeout_s = timeout_s
        self._attempts = {}
        self._done = threading.Event()
        self._nodes = {spec.name: _Node(spec) for spec in self.specs}
        self._ring = HashRing()
        self.node_stats = {}

        # Startup probe: at least one node must answer now; the rest can
        # rejoin later (the monitor keeps knocking).
        alive = self.ping_all(timeout=self.connect_timeout_s)
        for name, ok in alive.items():
            if ok:
                self._nodes[name].alive = True
                self._ring.add(name)
        if not len(self._ring):
            raise DistError(
                "no node answered a ping: " + ", ".join(sorted(alive))
            )

        batch = self._batch = Batch(jobs, cache=cache, progress=progress)
        if batch.progress.workers is None:
            batch.progress.workers = len(self._ring)
        self.metrics.counter("dist.cache_hits").inc(batch.cache_hits)
        if self.warm_start:
            batch.gate_prefixes()
        if batch.done:
            return batch.finish()

        monitor = threading.Thread(
            target=self._monitor_loop, name="dist-monitor", daemon=True
        )
        for node in self._nodes.values():
            if node.alive:
                self._start_dispatcher(node)
        with self._lock:
            for index in batch.ready:
                self._enqueue(index)
        monitor.start()

        self._done.wait()
        for node in self._nodes.values():
            node.queue.put(_STOP)
        for node in self._nodes.values():
            if node.thread is not None:
                node.thread.join(timeout=10.0)
        monitor.join(timeout=self.rejoin_interval_s + 5.0)
        self._collect_node_stats()
        return batch.finish()

    # --- Routing and dispatch ---------------------------------------------

    def _enqueue(self, index: int) -> None:
        """Route one job onto a live node's queue (lock held)."""
        assert self._ring is not None and self._batch is not None
        try:
            name = self._ring.route(self._batch.fingerprints[index])
        except DistError:
            self._fail_locked(index, "no live nodes")
            return
        self.metrics.counter("dist.dispatched").inc()
        self._nodes[name].queue.put(index)

    def _request_timeout(self) -> float:
        if self.request_timeout_s is not None:
            return self.request_timeout_s
        if self._timeout_s is not None:
            # Headroom over the per-job deadline: queue wait + transfer.
            return self._timeout_s + 30.0
        return 600.0

    def _start_dispatcher(self, node: _Node) -> None:
        node.thread = threading.Thread(
            target=self._dispatch_loop,
            args=(node,),
            name=f"dist-{node.spec.name}",
            daemon=True,
        )
        node.thread.start()

    def _dispatch_loop(self, node: _Node) -> None:
        assert self._batch is not None
        client = node.spec.client(
            request_timeout=self._request_timeout(),
            retries=2,
            retry_overloaded=True,
        )
        with client:
            while True:
                index = node.queue.get()
                if index is _STOP:
                    return
                payload: dict[str, Any] = {"job": self._batch.jobs[index].to_dict()}
                if self._timeout_s is not None:
                    payload["deadline_s"] = self._timeout_s
                began = time.monotonic()
                try:
                    response = client.request("run", payload)
                except (Overloaded, RequestFailed) as exc:
                    if isinstance(exc, Overloaded) or (
                        exc.code in _DETERMINISTIC_CODES
                    ):
                        # Overloaded only surfaces here once the client
                        # exhausted retry_after hints — treat both as
                        # terminal for this job, not for the node.
                        with self._lock:
                            self._fail_locked(index, str(exc))
                    else:
                        # bad-request/oversized/unknown-verb: the node
                        # cannot take this job; shutting-down or any
                        # surprise code: the node is going away.
                        self._node_down(node, index, str(exc))
                        return
                except (ServerUnavailable, ServeTimeout, ServeError, OSError) as exc:
                    self._node_down(node, index, str(exc))
                    return
                else:
                    self._settle_success(
                        node, index, response, time.monotonic() - began
                    )

    # --- Settlement -------------------------------------------------------

    def _settle_success(
        self,
        node: _Node,
        index: int,
        response: Mapping[str, Any],
        elapsed: float,
    ) -> None:
        envelope = response.get("result")
        if not isinstance(envelope, Mapping):
            self._node_down(node, index, "run response carried no result")
            return
        try:
            result = result_from_dict(envelope)
        except Exception as exc:  # undecodable: a node-side bug
            self._node_down(node, index, f"undecodable result: {exc}")
            return
        assert self._batch is not None
        cached = bool(response.get("cached"))
        with self._lock:
            self.metrics.counter(
                "dist.remote_cache_hits" if cached else "dist.fresh_results"
            ).inc()
            released = self._batch.succeed(
                index,
                result=result,
                envelope=envelope,
                elapsed=float(response.get("service_s", elapsed)),
                cached=cached,
            )
        if released:
            # A gate leader: replicate its captured prefix across the
            # ring before its group dispatches.
            self._replicate_prefix(self._batch.gate_keys[index], node)
        with self._lock:
            self._release_locked(released)

    def _fail_locked(self, index: int, reason: str) -> None:
        """Record a terminal failure (lock held); the batch keeps going.
        A failed gate leader still releases its group, which runs cold."""
        assert self._batch is not None
        self.metrics.counter("dist.terminal_failures").inc()
        self._release_locked(self._batch.fail(index, reason))

    def _release_locked(self, indices: list[int]) -> None:
        for index in indices:
            self._enqueue(index)
        assert self._batch is not None
        if self._batch.done:
            self._done.set()

    # --- Failover ----------------------------------------------------------

    def _node_down(self, node: _Node, inflight: int | None, reason: str) -> None:
        """Mark a node dead, rehash its backlog, retry its in-flight job."""
        drained: list[int] = []
        with self._lock:
            if node.alive:
                node.alive = False
                assert self._ring is not None
                self._ring.remove(node.spec.name)
                self.metrics.counter("dist.node_failures").inc()
            while True:
                try:
                    entry = node.queue.get_nowait()
                except queue.Empty:
                    break
                if entry is not _STOP:
                    drained.append(entry)
            if inflight is not None:
                # The attempt consumed this job's turn; queued jobs never
                # ran here and re-route without charge.
                self._attempts[inflight] = self._attempts.get(inflight, 0) + 1
                self.metrics.counter("dist.failovers").inc()
                self._retry_locked(inflight, reason)
            for index in drained:
                self.metrics.counter("dist.failovers").inc()
                self._retry_locked(index, f"node {node.spec.name} down", charge=False)

    def _retry_locked(self, index: int, reason: str, charge: bool = True) -> None:
        assert self._batch is not None
        attempts = self._attempts.get(index, 0)
        if charge and attempts >= self.max_attempts:
            self._fail_locked(index, f"failed on {attempts} nodes: {reason}")
            return
        self.metrics.counter("dist.retries").inc()
        self._batch.progress.job_retried(self._batch.jobs[index].describe(), reason)
        self._enqueue(index)

    def _monitor_loop(self) -> None:
        """Knock on dead nodes until the batch completes; a node that
        answers again rejoins the ring with a fresh dispatcher."""
        while not self._done.wait(self.rejoin_interval_s):
            for node in self._nodes.values():
                if node.alive or self._done.is_set():
                    continue
                client = node.spec.client(
                    request_timeout=self.connect_timeout_s, retries=0
                )
                try:
                    with client:
                        client.ping(timeout=self.connect_timeout_s)
                except (ServeError, OSError):
                    continue
                with self._lock:
                    if not node.alive and not self._done.is_set():
                        node.alive = True
                        assert self._ring is not None
                        self._ring.add(node.spec.name)
                        self.metrics.counter("dist.rejoins").inc()
                        self._start_dispatcher(node)

    # --- Warm-start replication --------------------------------------------

    def _replicate_prefix(self, key: str, source: _Node) -> None:
        """Pull the prefix blob off the capturing node and push it to
        every other live node. All failures are soft — a node without
        the prefix just runs its group members cold."""
        blob: bytes | None = None
        try:
            client = source.spec.client(
                request_timeout=self._request_timeout(), retries=1
            )
            with client:
                blob = client.prefix_fetch(key)
        except (ServeError, OSError):
            blob = None
        if blob is None:
            # The capture window closed before the threshold poll (tiny
            # run, early trigger) or the node has no store: degrade cold.
            self.metrics.counter("dist.prefix_fetch_misses").inc()
            return
        with self._lock:
            targets = [
                n for n in self._nodes.values()
                if n.alive and n.spec.name != source.spec.name
            ]
        for target in targets:
            try:
                client = target.spec.client(
                    request_timeout=self._request_timeout(), retries=1
                )
                with client:
                    client.prefix_put(key, blob)
                self.metrics.counter("dist.prefix_transfers").inc()
            except (ServeError, OSError):
                self.metrics.counter("dist.prefix_transfer_failures").inc()

    # --- Wrap-up -----------------------------------------------------------

    def _collect_node_stats(self) -> None:
        for node in self._nodes.values():
            if not node.alive:
                continue
            try:
                client = node.spec.client(request_timeout=10.0, retries=0)
                with client:
                    node.stats = client.stats()
            except (ServeError, OSError):
                node.stats = None
            if node.stats is not None:
                self.node_stats[node.spec.name] = node.stats
