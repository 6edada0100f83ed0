"""The golden ``RunResult`` corpus, ``perf/corpus.json``.

The paper's results are relative simulated costs (bus traffic, pause
cycles, sweep cycles), and a serialized :class:`RunResult` holds all of
them. The corpus pins the sha256 of :func:`dumps_result` for every job
of a smoke matrix: 4 workload families under all 5 revokers with seeds 1
and 2, plus one traced job per revoker, since a traced result also
carries the tracer's ``metrics`` fold.

``python -m repro bench`` runs the matrix in this process and compares
each digest with the file; ``tests/test_corpus.py`` runs subsets of the
same jobs through every execution path (pool, serve, dist, warm-start,
snapshot-resume, the reference loops) against the same digests. Any
change to a digest is a change in simulated behaviour: re-record only
with ``--record --force`` and a reason in CHANGES.md
(docs/BENCHMARKING.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.config import RevokerKind
from repro.core.experiment import ALL_KINDS, run_experiment
from repro.core.metrics import RunResult
from repro.errors import PerfError
from repro.obs.tracer import tracing
from repro.perf.report import check_overwrite, collect_env, git_sha, recorded_sha
from repro.runner.campaign import CampaignSpec, Job, WorkloadSpec, build_config
from repro.runner.serialize import dumps_result

#: The committed corpus, relative to the repository root (the CWD).
CORPUS_PATH = Path("perf/corpus.json")

#: Every job runs on 16 MiB of simulated memory: snapshot captures copy
#: all of it, so warm-start and resume stay cheap.
CONFIG = {"machine": {"memory_bytes": 16 << 20}}

#: One heavy SPEC churner, one floor-dominated SPEC input, pgbench, gRPC.
FAMILIES = (
    WorkloadSpec("spec", {"benchmark": "omnetpp", "input": "ref", "scale": 65536}),
    WorkloadSpec("spec", {"benchmark": "hmmer", "input": "retro", "scale": 1024}),
    WorkloadSpec("pgbench", {"transactions": 30, "scale": 16}),
    WorkloadSpec("grpc", {"duration_seconds": 0.05, "scale": 256}),
)
SEEDS = (1, 2)

#: Verdicts of :func:`compare`.
CHANGED = "changed"
MISSING = "missing"
NEW = "new"


def matrix() -> list[Job]:
    """Every family under every revoker, with each seed."""
    return CampaignSpec("corpus", FAMILIES, ALL_KINDS, seeds=SEEDS, config=CONFIG).expand()


def cover(
    families: Sequence[WorkloadSpec] = FAMILIES,
    kinds: Sequence[RevokerKind] = ALL_KINDS,
) -> list[Job]:
    """The fewest seed-1 jobs in which every one of ``families`` and every
    one of ``kinds`` appears at least once."""
    return [
        Job(
            families[i % len(families)].with_params(seed=SEEDS[0]),
            kinds[i % len(kinds)],
            CONFIG,
        )
        for i in range(max(len(families), len(kinds)))
    ]


def label(job: Job, traced: bool = False) -> str:
    """A job's corpus entry name."""
    return f"{job.describe()} traced" if traced else job.describe()


def digest(result: RunResult) -> str:
    return hashlib.sha256(dumps_result(result).encode()).hexdigest()


def _simulate(job: Job) -> RunResult:
    # Not execute_job: the REPRO_* settings it reads (a trace directory
    # above all) must not change what the gate compares.
    return run_experiment(job.workload.build(), job.revoker, build_config(job))


def run() -> dict[str, RunResult]:
    """Every corpus entry's result, simulated in this process."""
    results = {label(job): _simulate(job) for job in matrix()}
    for job in cover():
        with tracing():
            results[label(job, traced=True)] = _simulate(job)
    return results


def compare(
    expected: Mapping[str, str], results: Mapping[str, RunResult]
) -> dict[str, str]:
    """Every entry that differs between the corpus and ``results``:
    label -> :data:`CHANGED`, :data:`MISSING` or :data:`NEW`."""
    out = {}
    for name in sorted(set(expected) | set(results)):
        if name not in results:
            out[name] = MISSING
        elif name not in expected:
            out[name] = NEW
        elif expected[name] != digest(results[name]):
            out[name] = CHANGED
    return out


def _read(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PerfError(f"cannot read the corpus {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("results"), dict):
        raise PerfError(f"{path} is not a corpus (no 'results' object)")
    return data


def load(path: Path = CORPUS_PATH) -> dict[str, str]:
    """The committed digests, by label."""
    return dict(_read(Path(path))["results"])


def check_record(path: Path = CORPUS_PATH, force: bool = False) -> None:
    """Refuse to overwrite a corpus recorded at another commit unless
    ``force``."""
    path = Path(path)
    if path.exists():
        check_overwrite(recorded_sha(_read(path)), git_sha(), f"corpus {path}", force)


def record(results: Mapping[str, RunResult], path: Path = CORPUS_PATH) -> None:
    """Write ``results``' digests as the corpus."""
    path = Path(path)
    data = {
        "env": collect_env(),
        "results": {name: digest(r) for name, r in sorted(results.items())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
