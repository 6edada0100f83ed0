"""Exception hierarchy for the Cornucopia Reloaded reproduction.

Everything raised by this package derives from :class:`ReproError`, so client
code can catch one type. Architectural traps (which are *modelled* control
flow, not programming errors) live in :mod:`repro.machine.trap` and derive
from :class:`ArchitecturalTrap` here.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class CapabilityError(ReproError):
    """An operation on a capability value violates the CHERI model.

    Raised for non-monotonic derivation, dereference through an untagged
    capability, out-of-bounds access, or missing permissions. In hardware
    these would be capability exceptions delivered to the OS; in this model
    they indicate the simulated program performed an illegal access, so the
    simulation treats them as fail-stop, exactly as CHERI intends.
    """


class AllocatorError(ReproError):
    """Heap allocator misuse (double free, free of a non-heap pointer...)."""


class VMError(ReproError):
    """Virtual memory misuse (unmapped access, bad munmap, overlap...)."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent internal state (a bug)."""


class StatsError(ReproError, ValueError):
    """A statistics helper was fed invalid input (empty sequence,
    out-of-range percentile, non-positive geomean operand).

    Also a :class:`ValueError` so callers treating these as plain domain
    errors keep working.
    """


class PerfError(ReproError):
    """The behaviour gate or a benchmark report was misused (unreadable
    golden corpus, malformed perf report, an overwrite of a record made
    at a different git commit without force...)."""


class SnapshotError(ReproError):
    """A checkpoint could not be taken, parsed, or restored (unsupported
    workload, corrupt or version-mismatched checkpoint file, restore into
    an incompatible tracer configuration...)."""


class DistError(ReproError):
    """The distributed campaign coordinator could not proceed (no node
    reachable at startup, malformed --nodes list, every node lost
    mid-campaign...). Per-job terminal failures raise
    :class:`~repro.runner.batch.CampaignJobError` instead, after the
    rest of the batch settles."""


class ArchitecturalTrap(ReproError):
    """Base class for traps the simulated CPU delivers to the kernel.

    These are expected, handled control transfers (like page faults), not
    error conditions; the machine layer raises them and the kernel layer
    catches and resolves them.
    """
