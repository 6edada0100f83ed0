"""Snapshot scheduling: when to park, when to capture.

A :class:`SnapshotSession` is attached to a simulation before ``run()``
and rides *inside* the simulation graph (so a checkpoint knows its own
cadence and a resumed run keeps checkpointing on schedule). Application
threads poll :meth:`due` at the top of their work loop and park on
:attr:`barrier` when a capture is pending; the simulation's drive loop
waits for full quiescence (every app thread parked or finished, the mrs
controller idle between epochs), captures, then signals the barrier with
``at_time=0`` — a pure no-op on every wake floor, so enabling snapshots
does not perturb the schedule.

In-memory captures are deliberately *not* pickled: a checkpoint must
not contain earlier checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.machine.scheduler import Event, ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.core.simulation import Simulation

#: Prefix-mode capture ladder, as multipliers of ``prefix_fraction x
#: trigger limit``. Stage 0 captures at the first quiescent poll (so a
#: prefix always exists if the workload polls at all before the first
#: trigger); later stages upgrade it as quarantine approaches the limit.
_PREFIX_STAGES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SnapshotPlan:
    """Capture cadence.

    With a revoker installed, captures land at epoch-close boundaries:
    one capture each time ``every_epochs`` further revocation epochs have
    completed. Under the NONE revoker there are no epochs, so the cadence
    falls back to ``every_checks`` barrier polls (one poll per workload
    work unit); leaving it unset under NONE is an error rather than a
    silent never-captures.

    ``prefix_fraction`` switches the session into **epoch-0 prefix
    mode** (docs/WARMSTART.md): capture the deepest quiescent poll before
    the *first* revocation epoch opens. Quarantine can grow by a large
    bite between polls (one work unit may free more than the remaining
    headroom), so a single just-below-the-trigger threshold would often
    be skipped entirely; instead the session captures at a small ladder
    of thresholds — immediately, then again each time quarantine crosses
    the next fraction of ``prefix_fraction x trigger limit`` — and the
    *last* capture (the deepest prefix) is the one worth keeping.
    Everything captured is revoker-independent (no epoch has run yet),
    which is what lets the warm-start fork retarget the blob to a
    different revocation strategy. Once the trigger fires the window has
    closed and the session retires — safe degradation, never a wrong
    capture.
    """

    every_epochs: int = 1
    every_checks: int | None = None
    #: Stop capturing after this many checkpoints (None = unbounded).
    max_captures: int | None = None
    #: Epoch-0 prefix mode: capture once quarantine exceeds this fraction
    #: of the revocation-trigger limit, before the first epoch. Requires
    #: a revoking strategy (the NONE revoker has no quarantine).
    prefix_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.every_epochs < 1:
            raise SnapshotError(f"every_epochs must be >= 1, got {self.every_epochs}")
        if self.every_checks is not None and self.every_checks < 1:
            raise SnapshotError(f"every_checks must be >= 1, got {self.every_checks}")
        if self.max_captures is not None and self.max_captures < 1:
            raise SnapshotError(f"max_captures must be >= 1, got {self.max_captures}")
        if self.prefix_fraction is not None and not (
            0.0 < self.prefix_fraction <= 1.0
        ):
            raise SnapshotError(
                f"prefix_fraction must be in (0, 1], got {self.prefix_fraction}"
            )


class SnapshotSession:
    """Live snapshot state for one simulation run."""

    def __init__(self, sim: "Simulation", plan: SnapshotPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.barrier = Event("snapshot-barrier")
        #: Captures taken so far (straight run and resumed run combined —
        #: a resumed run continues the sequence).
        self.sequence = 0
        self._epoch_mode = sim.mrs is not None
        if not self._epoch_mode and plan.every_checks is None:
            raise SnapshotError(
                "the NONE revoker has no epochs to snapshot at; "
                "set SnapshotPlan.every_checks"
            )
        if plan.prefix_fraction is not None and not self._epoch_mode:
            raise SnapshotError(
                "prefix capture requires a revoking strategy (the NONE "
                "revoker has no quarantine to measure the prefix against)"
            )
        self.next_epoch = plan.every_epochs
        self._checks = 0
        self._prefix_stage = 0
        self._exhausted = False
        #: Extra provenance merged into every checkpoint header (the
        #: runner stamps its job fingerprint here). Pure data; pickled,
        #: so a resumed run keeps stamping the same provenance.
        self.header_extra: dict = {}
        #: Blobs captured this process (value copies; never pickled).
        self.captured: list[bytes] = []
        self.headers: list[dict] = []

    # --- Workload-facing ----------------------------------------------------

    def due(self) -> bool:
        """Should the polling thread park for a capture now? Called once
        per work unit; under check cadence the call itself is the tick.

        In epoch mode this additionally requires the mrs controller to be
        idle-blocked between epochs. That makes the park *free*: with the
        controller parked in ``revoke_requested.waiters`` and the app
        thread blocked at the barrier nothing else is runnable, so the
        capture happens immediately, zero simulated cycles pass, and the
        schedule is not perturbed. Parking while the controller is still
        revoking or releasing quarantine would instead serialize app work
        against the release — different allocator interleaving, different
        run. If the controller is busy at an epoch boundary the capture
        simply waits for the next work-unit poll.
        """
        if self._exhausted:
            return False
        if self._epoch_mode:
            if self.plan.prefix_fraction is not None:
                return self._prefix_due()
            if self.sim.kernel.epoch.completed < self.next_epoch:
                return False
            return self._controller_idle()
        assert self.plan.every_checks is not None
        self._checks += 1
        return self._checks >= self.plan.every_checks

    def _prefix_due(self) -> bool:
        """Epoch-0 prefix mode: walk the capture ladder toward the last
        quiescent poll before the first revocation trigger. Once a
        trigger has fired (or an epoch has completed) the shared-prefix
        window is closed for good, so the session retires instead of
        polling forever."""
        mrs = self.sim.mrs
        if self.sim.kernel.epoch.completed != 0 or mrs._trigger_pending:
            self._exhausted = True
            return False
        quarantined = mrs.quarantine.total_bytes
        limit = mrs.policy.limit_bytes(mrs.alloc.allocated_bytes, quarantined)
        assert self.plan.prefix_fraction is not None
        threshold = (
            _PREFIX_STAGES[self._prefix_stage] * self.plan.prefix_fraction * limit
        )
        if quarantined < threshold:
            return False
        return self._controller_idle()

    def _controller_idle(self) -> bool:
        controller = self.sim._controller_thread
        if controller is None:
            return False
        return (
            controller.state is ThreadState.BLOCKED
            and controller in self.sim.mrs.revoke_requested.waiters
        )

    # --- Simulation-facing --------------------------------------------------

    def mark_captured(self) -> None:
        """Advance the cadence. Runs *before* the state is pickled, so the
        checkpoint and the continuing run agree on when the next capture
        is due — the symmetry the determinism contract rests on."""
        self.sequence += 1
        if self._epoch_mode:
            self.next_epoch = self.sim.kernel.epoch.completed + self.plan.every_epochs
            if self.plan.prefix_fraction is not None:
                self._prefix_stage += 1
                if self._prefix_stage >= len(_PREFIX_STAGES):
                    self._exhausted = True
        else:
            self._checks = 0
        if self.plan.max_captures is not None and self.sequence >= self.plan.max_captures:
            self._exhausted = True

    def deliver(self, blob: bytes, header: dict) -> None:
        self.captured.append(blob)
        self.headers.append(header)

    # --- Pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["captured"] = []
        state["headers"] = []
        return state
