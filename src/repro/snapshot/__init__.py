"""Deterministic checkpoint/restore for resumable simulations.

See docs/SNAPSHOT.md. The public surface:

- :class:`SnapshotPlan` / :class:`SnapshotSession` — cadence and delivery
  (pass a plan or session to ``Simulation.run(snapshots=...)``).
- :func:`restore_simulation` — checkpoint blob -> quiescent simulation;
  continue with ``sim.resume()``.
- :func:`read_header` — provenance without unpickling.
- :class:`PrefixStore` / :func:`prefix_key` / :func:`fork_simulation` —
  warm-start prefix sharing for sweeps (docs/WARMSTART.md).

The determinism contract: ``restore_simulation(blob)[0].resume()``
produces a ``RunResult`` bit-identical to the straight-through run that
wrote ``blob``, for every revoker, traced or not. Warm-start forking
extends it across revokers before the first epoch: ``fork_simulation``
retargets an epoch-0 prefix to any revoking strategy and the resumed
result stays bit-identical to that strategy's cold run.
"""

from repro.snapshot.capture import capture_simulation, restore_simulation
from repro.snapshot.format import (
    FORMAT_VERSION,
    pack_checkpoint,
    read_header,
    unpack_checkpoint,
)
from repro.snapshot.prefix import (
    PREFIX_FRACTION,
    PrefixStore,
    default_prefix_dir,
    fork_simulation,
    prefix_key,
    prefix_plan,
    prefix_store_dir,
    retarget_revoker,
)
from repro.snapshot.session import SnapshotPlan, SnapshotSession

__all__ = [
    "FORMAT_VERSION",
    "PREFIX_FRACTION",
    "PrefixStore",
    "SnapshotPlan",
    "SnapshotSession",
    "capture_simulation",
    "default_prefix_dir",
    "fork_simulation",
    "prefix_key",
    "prefix_plan",
    "prefix_store_dir",
    "restore_simulation",
    "retarget_revoker",
    "read_header",
    "pack_checkpoint",
    "unpack_checkpoint",
]
