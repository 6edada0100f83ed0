"""Whole-simulation capture and restore.

The simulation graph — machine (memory, tag and capability-base arrays,
page table, cores, caches, bus), kernel (epoch clock, revoker phase
bookkeeping, hoards), allocator stack (snmalloc heap, mrs quarantine),
scheduler (run queues, sleepers, credits, clocks), workload task state,
latency samples — is one connected object graph rooted at
:class:`~repro.core.simulation.Simulation`, and all of it pickles...
except generator frames. Thread bodies are therefore stripped before
pickling and *fresh* generators are attached on restore; this is sound
because capture only happens at quiescent points where every live app
thread is parked at the snapshot barrier (its loop state lives on the
workload's task object, not the frame) and the mrs controller is blocked
between epochs in ``revoke_requested.waiters`` (all its state on
``self``; a fresh ``controller()`` generator re-blocks identically).

The process-global :data:`~repro.obs.tracer.TRACER` is not part of the
graph; its buffer/metrics travel alongside in the payload and are
reinstalled on restore. A traced checkpoint refuses to restore into an
untraced process (and vice versa) — the alternative is a silently
non-identical ``RunResult``.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any

from repro.errors import SnapshotError
from repro.obs.tracer import TRACER
from repro.snapshot.format import pack_checkpoint, unpack_checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.simulation import Simulation


def capture_simulation(sim: "Simulation") -> tuple[bytes, dict[str, Any]]:
    """Serialize ``sim`` (quiescent, mid-run) into a checkpoint blob.

    Returns ``(blob, header)``. Callers go through
    ``Simulation._capture_and_release`` which establishes quiescence and
    advances the session cadence first.
    """
    session = sim._snapshots
    if session is None:
        raise SnapshotError("capture requires an attached SnapshotSession")

    tracer_state: dict[str, Any] | None = None
    if TRACER.enabled:
        tracer_state = {
            "capacity": TRACER.capacity,
            "metrics": TRACER.metrics,
            "buf": TRACER._buf,
            "head": TRACER._head,
            "emitted": TRACER.emitted,
        }

    sched = sim.machine.scheduler
    stripped = [(t, t.body) for t in sched.threads]
    try:
        for thread, _ in stripped:
            thread.body = None
        payload = pickle.dumps(
            {"sim": sim, "tracer": tracer_state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    finally:
        for thread, body in stripped:
            thread.body = body

    from repro.runner.serialize import FORMAT_VERSION as RESULT_FORMAT_VERSION
    from repro.snapshot.format import FORMAT_VERSION

    header: dict[str, Any] = {
        "format": "repro-checkpoint",
        "version": FORMAT_VERSION,
        "result_format": RESULT_FORMAT_VERSION,
        "workload": sim.workload.name,
        "revoker": sim.config.revoker.value,
        "epoch": sim.kernel.epoch.completed,
        "wall": sched.current_time(),
        "sequence": session.sequence,
        "traced": tracer_state is not None,
    }
    header.update(session.header_extra)
    return pack_checkpoint(header, payload), header


def restore_simulation(data: bytes) -> tuple["Simulation", dict[str, Any]]:
    """Rebuild a quiescent simulation from a checkpoint blob.

    Returns ``(sim, header)``; continue it with ``sim.resume()``. The
    resumed run keeps capturing on the original cadence into the
    restored session's ``captured`` and ``headers``.
    """
    header, payload = unpack_checkpoint(data)
    if header.get("format") != "repro-checkpoint":
        raise SnapshotError(f"unexpected checkpoint format field: {header.get('format')!r}")
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"checkpoint payload failed to unpickle: {exc}") from exc

    sim: "Simulation" = state["sim"]
    tracer_state = state["tracer"]
    sched = sim.machine.scheduler

    if (tracer_state is not None) != TRACER.enabled:
        want = "enabled" if tracer_state is not None else "disabled"
        raise SnapshotError(
            f"checkpoint was recorded with tracing {want}; restore with the "
            f"tracer in the same state or the resumed RunResult cannot be "
            f"bit-identical"
        )
    if tracer_state is not None:
        TRACER.capacity = tracer_state["capacity"]
        TRACER.metrics = tracer_state["metrics"]
        TRACER._buf = tracer_state["buf"]
        TRACER._head = tracer_state["head"]
        TRACER.emitted = tracer_state["emitted"]
        TRACER.clock = sched.current_time

    # Reattach fresh generators to the pickled Thread shells.
    bodies = sim.workload.thread_bodies()
    if len(bodies) != len(sim._app_threads):
        raise SnapshotError(
            f"workload now reports {len(bodies)} threads, checkpoint has "
            f"{len(sim._app_threads)}"
        )
    for (name, factory), thread, ctx in zip(bodies, sim._app_threads, sim._contexts):
        thread.body = factory(ctx)
    if sim._controller_thread is not None:
        rc = sim.config.revoker_core
        sim._controller_thread.body = sim.mrs.controller(
            sim.machine.cores[rc], sched.cores[rc]
        )

    if sim._snapshots is None:
        raise SnapshotError("checkpoint is missing its snapshot session")
    sim._restored = True
    return sim, header
