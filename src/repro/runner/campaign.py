"""Declarative experiment campaigns.

A campaign is a condition matrix — workloads x revocation strategies x
seeds — expanded into independent :class:`Job`\\ s. Jobs are plain data
(JSON-able, picklable), so they can be fingerprinted for the result
cache, shipped to pool workers, or written down in a campaign spec file
and replayed later. Workloads are *described*, not constructed: a
:class:`WorkloadSpec` names a registered builder plus its keyword
parameters, and each executing process builds its own fresh workload
object (workloads are stateful; one per run).

The built-in builders cover the paper's evaluation workloads:

- ``spec``     — :func:`repro.workloads.spec.workload` (params:
  ``benchmark``, ``input``, ``scale``, ``seed``);
- ``pgbench``  — :class:`repro.workloads.pgbench.PgBenchWorkload`
  (params: ``transactions``, ``rate_tps``, ``scale``, ``seed``);
- ``grpc``     — :class:`repro.workloads.grpc_qps.GrpcQpsWorkload`
  (params: ``duration_seconds``, ``scale``, ``seed``).

Extensions register more with :func:`register_workload`.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import RevokerKind, SimulationConfig
from repro.core.experiment import run_experiment
from repro.core.metrics import RunResult
from repro.errors import ConfigError
from repro.runner.serialize import canonical_json
from repro.settings import Settings
from repro.snapshot.prefix import prefix_store_dir
from repro.workloads.base import Workload

#: Builds a fresh workload from a spec's keyword parameters.
WorkloadBuilder = Callable[..., Workload]

_BUILDERS: dict[str, WorkloadBuilder] = {}


def register_workload(kind: str, builder: WorkloadBuilder) -> None:
    """Register (or replace) a workload builder under ``kind``."""
    _BUILDERS[kind] = builder


def registered_workloads() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def _build_spec(**params: Any) -> Workload:
    from repro.workloads import spec

    return spec.workload(**params)


def _build_pgbench(**params: Any) -> Workload:
    from repro.workloads.pgbench import PgBenchWorkload

    return PgBenchWorkload(**params)


def _build_grpc(**params: Any) -> Workload:
    from repro.workloads.grpc_qps import GrpcQpsWorkload

    return GrpcQpsWorkload(**params)


register_workload("spec", _build_spec)
register_workload("pgbench", _build_pgbench)
register_workload("grpc", _build_grpc)


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload description: builder kind + parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Workload:
        builder = _BUILDERS.get(self.kind)
        if builder is None:
            known = ", ".join(registered_workloads())
            raise ConfigError(
                f"unknown workload kind {self.kind!r}; registered: {known}"
            )
        try:
            return builder(**dict(self.params))
        except TypeError as exc:
            raise ConfigError(
                f"bad parameters for workload kind {self.kind!r}: {exc}"
            ) from exc

    def with_params(self, **updates: Any) -> "WorkloadSpec":
        merged = dict(self.params)
        merged.update(updates)
        return WorkloadSpec(self.kind, merged)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class Job:
    """One independent experiment: a workload under one strategy.

    ``config`` holds declarative :class:`SimulationConfig` overrides —
    top-level scalar fields (``app_core``, ``revoker_core``) plus the
    nested ``machine`` and ``policy`` sub-dicts. ``key`` is an opaque
    caller-side identity used to map results back (e.g. the harness's
    ``(bench, input, kind)`` tuples); it does not affect execution or
    fingerprints.
    """

    workload: WorkloadSpec
    revoker: RevokerKind
    config: Mapping[str, Any] = field(default_factory=dict)
    key: Any = None

    def describe(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.workload.params.items()))
        return f"{self.workload.kind}({params})/{self.revoker.value}"

    def to_dict(self) -> dict[str, Any]:
        """Execution-relevant identity (``key`` deliberately excluded)."""
        return {
            "workload": self.workload.to_dict(),
            "revoker": self.revoker.value,
            "config": dict(self.config),
        }


def job_from_dict(data: Mapping[str, Any], key: Any = None) -> Job:
    """Inverse of :meth:`Job.to_dict` — the representation jobs travel in
    over the serve wire protocol and inside cache envelopes."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"job must be an object, got {type(data).__name__}")
    unknown = set(data) - {"workload", "revoker", "config"}
    if unknown:
        raise ConfigError(f"job: unknown fields {sorted(unknown)}")
    try:
        workload = data["workload"]
        spec = WorkloadSpec(str(workload["kind"]), dict(workload.get("params", {})))
        revoker = RevokerKind(data["revoker"])
    except KeyError as exc:
        raise ConfigError(f"job missing field: {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad job: {exc}") from exc
    config = data.get("config", {})
    if not isinstance(config, Mapping):
        raise ConfigError("job: config must be an object")
    return Job(workload=spec, revoker=revoker, config=dict(config), key=key)


def build_config(job: Job) -> SimulationConfig:
    """Materialize a job's :class:`SimulationConfig` from its overrides."""
    from repro.alloc.quarantine import QuarantinePolicy

    cfg = SimulationConfig(revoker=job.revoker)
    for name, value in job.config.items():
        if name == "machine":
            for mfield, mvalue in value.items():
                if not hasattr(cfg.machine, mfield) or mfield == "costs":
                    raise ConfigError(f"unknown machine override {mfield!r}")
                setattr(cfg.machine, mfield, mvalue)
        elif name == "policy":
            try:
                cfg.policy = QuarantinePolicy(**value)
            except TypeError as exc:
                raise ConfigError(f"bad policy override: {exc}") from exc
        elif name in ("app_core", "revoker_core"):
            setattr(cfg, name, value)
        else:
            raise ConfigError(f"unknown config override {name!r}")
    cfg.validate()
    return cfg


def job_trace_slug(job: Job) -> str:
    """A filesystem-safe, collision-free artifact name for one job."""
    human = re.sub(r"[^A-Za-z0-9._-]+", "-", job.describe()).strip("-")
    digest = hashlib.sha256(canonical_json(job.to_dict()).encode()).hexdigest()[:10]
    return f"{human}-{digest}"


#: Checkpoint cadence for runner-managed snapshots: every epoch close
#: under a revoker, every this-many work-unit polls under NONE.
_SNAPSHOT_EVERY_CHECKS = 256

#: How the last executed job in this process came by its result:
#: ``"hit"`` (forked from a stored prefix) or ``"capture"`` (ran cold and
#: stored the prefix). Module-global so the pool worker can ship it back
#: over the result pipe alongside the envelope.
_warm_start_note: str | None = None


def _note_warm_start(note: str) -> None:
    global _warm_start_note
    _warm_start_note = note


def pop_warm_start_note() -> str | None:
    """Consume the warm-start outcome of the most recent
    :func:`execute_job` in this process (None = cold, no prefix store)."""
    global _warm_start_note
    note = _warm_start_note
    _warm_start_note = None
    return note


def prefix_eligible(job: Job) -> bool:
    """Can this job participate in warm-start prefix sharing? The NONE
    baseline runs a different allocator shim, and only snapshot-capable
    workloads can park for a capture."""
    if job.revoker is RevokerKind.NONE:
        return False
    try:
        workload = job.workload.build()
    except ConfigError:
        return False
    return bool(getattr(workload, "supports_snapshot", False))


def _run_warm(
    job: Job, workload: Workload, fingerprint: str, env: Settings
) -> RunResult | None:
    """The warm-start path: fork this job off its group's stored prefix,
    or run cold while capturing the prefix for the rest of the group.
    Returns None when a stored prefix exists but cannot be used (corrupt,
    stale format, tracer mismatch) — the caller then runs cold."""
    from repro.core.simulation import Simulation
    from repro.errors import SnapshotError
    from repro.snapshot import SnapshotSession
    from repro.snapshot.prefix import (
        PrefixStore,
        fork_simulation,
        prefix_key,
        prefix_plan,
    )

    store = PrefixStore(env.prefix_dir)
    epoch = env.prefix_epoch
    key = prefix_key(job, epoch)
    data = store.get(key)
    if data is not None:
        try:
            sim, _header = fork_simulation(data, job.revoker)
            result = sim.resume()
        except SnapshotError:
            # Corrupt, truncated, or incompatible prefix: recompute from
            # scratch rather than resume wrong state.
            return None
        _note_warm_start("hit")
        return result

    sim = Simulation(workload, build_config(job))
    session = SnapshotSession(sim, prefix_plan(epoch))
    session.header_extra["job_fingerprint"] = fingerprint
    session.header_extra["prefix_key"] = key
    result = sim.run(snapshots=session)
    # Captures are buffered, not sunk per rung: only the deepest capture
    # of the staged ladder is worth keeping, and put_if_absent means two
    # runs racing on one prefix can never double-store it.
    if session.captured and store.put_if_absent(key, session.captured[-1]):
        _note_warm_start("capture")
    return result


def _run_job(job: Job, env: Settings) -> RunResult:
    """Run — or, given a matching checkpoint or warm-start prefix,
    resume — one job's simulation. The determinism contract
    (docs/SNAPSHOT.md, docs/WARMSTART.md) makes the three
    indistinguishable from the result side.

    Precedence: a further-along matching per-job checkpoint
    (``REPRO_SNAPSHOT_DIR``) wins over a prefix fork; otherwise warm-start
    (``REPRO_PREFIX_DIR``) wins over per-epoch checkpointing — a run can
    only carry one snapshot session, and the prefix capture is the one
    the rest of the group is waiting on."""
    workload = job.workload.build()
    snap_dir = env.snapshot_dir
    warm = prefix_store_dir(env) is not None and prefix_eligible(job)
    if snap_dir is None and not warm:
        return run_experiment(workload, job.revoker, build_config(job))

    from repro.core.simulation import Simulation
    from repro.errors import SnapshotError
    from repro.obs.tracer import TRACER
    from repro.runner.cache import job_fingerprint
    from repro.snapshot import (
        SnapshotPlan,
        SnapshotSession,
        read_header,
        restore_simulation,
    )

    fingerprint = job_fingerprint(job)

    if snap_dir is not None:
        path = snap_dir / f"{job_trace_slug(job)}.ckpt"
        tmp = path.with_name(path.name + ".tmp")

        def sink(blob: bytes, header: Mapping[str, Any]) -> None:
            # Atomic replace: a crash mid-write leaves the previous
            # (valid) checkpoint; the trailing digest catches anything
            # else.
            snap_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)

        if path.exists():
            data = path.read_bytes()
            try:
                header = read_header(data)
                if (
                    header.get("job_fingerprint") == fingerprint
                    and header.get("traced") == TRACER.enabled
                ):
                    sim, _ = restore_simulation(data, sink=sink)
                    return sim.resume()
            except SnapshotError:
                # Stale, corrupt, or truncated checkpoint: recompute from
                # scratch rather than resume wrong state.
                pass

    if warm:
        result = _run_warm(job, workload, fingerprint, env)
        if result is not None:
            return result

    if snap_dir is None or not getattr(workload, "supports_snapshot", False):
        return run_experiment(workload, job.revoker, build_config(job))
    sim = Simulation(workload, build_config(job))
    session = SnapshotSession(
        sim,
        SnapshotPlan(every_epochs=1, every_checks=_SNAPSHOT_EVERY_CHECKS),
        sink=sink,
    )
    session.header_extra["job_fingerprint"] = fingerprint
    return sim.run(snapshots=session)


def execute_job(job: Job) -> RunResult:
    """Run one job to completion in this process (the pure function pool
    workers and the in-process fallback both call).

    With ``REPRO_TRACE_DIR`` set, the run records a structured trace and
    writes it as ``<dir>/<slug>.jsonl`` (cache hits skip execution and so
    produce no artifact — trace campaigns with ``--no-cache``). With
    ``REPRO_SNAPSHOT_DIR`` set, snapshot-capable jobs checkpoint at every
    epoch close and resume from ``<dir>/<slug>.ckpt`` when one matching
    the job fingerprint is present."""
    env = Settings.from_env()
    trace_dir = env.trace_dir
    if trace_dir is None:
        return _run_job(job, env)

    from repro.obs.export import write_jsonl
    from repro.obs.tracer import TRACER

    TRACER.start()
    try:
        result = _run_job(job, env)
        events = TRACER.events()
        meta = {
            "job": job.describe(),
            "workload": job.workload.build().name,
            "revoker": job.revoker.value,
            "wall_cycles": result.wall_cycles,
            "dropped": TRACER.dropped,
        }
    finally:
        TRACER.stop()
    trace_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(trace_dir / f"{job_trace_slug(job)}.jsonl", events, meta)
    return result


def stable_seed(*parts: Any, bits: int = 48) -> int:
    """A deterministic seed derived from arbitrary JSON-able parts.

    Independent of ``PYTHONHASHSEED`` and stable across processes and
    sessions, so replicate seeds derived during campaign expansion are
    reproducible.
    """
    digest = hashlib.blake2b(
        canonical_json(list(parts)).encode(), digest_size=bits // 8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class CampaignSpec:
    """A declarative condition matrix.

    ``seeds`` lists explicit workload seeds (each is injected as the
    ``seed`` parameter of every workload); ``None`` keeps each
    workload's built-in default seed. ``replicates`` instead derives
    that many deterministic per-job seeds via :func:`stable_seed`.
    """

    name: str
    workloads: Sequence[WorkloadSpec]
    revokers: Sequence[RevokerKind]
    seeds: Sequence[int] | None = None
    replicates: int | None = None
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seeds is not None and self.replicates is not None:
            raise ConfigError("campaign: give seeds or replicates, not both")
        if self.replicates is not None and self.replicates < 1:
            raise ConfigError("campaign: replicates must be >= 1")
        if not self.workloads:
            raise ConfigError("campaign: no workloads")
        if not self.revokers:
            raise ConfigError("campaign: no revokers")

    def _seeds_for(self, workload: WorkloadSpec, revoker: RevokerKind) -> list[int | None]:
        if self.seeds is not None:
            return list(self.seeds)
        if self.replicates is not None:
            return [
                stable_seed(self.name, workload.to_dict(), revoker.value, i)
                for i in range(self.replicates)
            ]
        return [None]

    def expand(self) -> list[Job]:
        """The full job matrix, in deterministic workload-major order.

        Each job's ``key`` is ``(workload_index, revoker, seed)``.
        """
        jobs: list[Job] = []
        for index, workload in enumerate(self.workloads):
            for revoker in self.revokers:
                for seed in self._seeds_for(workload, revoker):
                    spec = workload if seed is None else workload.with_params(seed=seed)
                    jobs.append(
                        Job(
                            workload=spec,
                            revoker=revoker,
                            config=dict(self.config),
                            key=(index, revoker, seed),
                        )
                    )
        return jobs

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Parse the JSON campaign-spec format (see docs/RUNNER.md)."""
        try:
            workloads = [
                WorkloadSpec(w["kind"], dict(w.get("params", {})))
                for w in data["workloads"]
            ]
            revokers = [RevokerKind(r) for r in data["revokers"]]
        except KeyError as exc:
            raise ConfigError(f"campaign spec missing field: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"campaign spec: {exc}") from exc
        unknown = set(data) - {
            "name", "workloads", "revokers", "seeds", "replicates", "config",
        }
        if unknown:
            raise ConfigError(f"campaign spec: unknown fields {sorted(unknown)}")
        return cls(
            name=str(data.get("name", "campaign")),
            workloads=workloads,
            revokers=revokers,
            seeds=data.get("seeds"),
            replicates=data.get("replicates"),
            config=dict(data.get("config", {})),
        )
