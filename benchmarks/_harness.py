"""Shared experiment sweeps and reporting for the benchmark harness.

(Imported as ``_harness`` by the bench modules; the pytest fixtures that
cache these sweeps per session live in conftest.py.)

Every figure and table of the paper's evaluation (§5) has one module in
this directory that regenerates it as text. Experiment sweeps are
expensive, so they run once per pytest session in the fixtures below and
are shared by every figure that reads them (figs. 1-4 all consume the
same SPEC sweep, exactly as in the paper).

The sweeps submit their (workload x revoker) matrices through
``repro.runner`` — the parallel campaign engine with content-addressed
result caching — instead of looping in-process. A second benchmark
session with unchanged knobs and simulator code is all cache hits; with
``REPRO_JOBS=1`` (the default) and a cold cache, execution order and
results are identical to running each experiment serially by hand.

Scaling knobs (environment variables):

- ``REPRO_SPEC_SCALE``   — divisor for SPEC byte quantities (default 256;
  the paper-shape calibration was done at 128-256; use 512+ for quick
  smoke runs);
- ``REPRO_PGBENCH_TX``   — pgbench transactions per run (default 1500);
- ``REPRO_GRPC_SECONDS`` — gRPC QPS measurement duration (default 1.5).

Campaign-runner knobs (see docs/RUNNER.md):

- ``REPRO_JOBS``         — parallel worker processes for the sweeps
  (default 1 = in-process; 0 = one per CPU);
- ``REPRO_CACHE_DIR``    — result cache location (default
  ``~/.cache/repro/results``);
- ``REPRO_CACHE``        — set to 0 to disable result caching;
- ``REPRO_JOB_TIMEOUT``  — per-experiment timeout in seconds (pool mode);
- ``REPRO_PROGRESS``     — set to 1 to stream per-job progress lines.

Each run's regenerated rows/series are printed (run with ``-s`` to see
them inline) and written to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.core.config import RevokerKind
from repro.core.metrics import RunResult
from repro.perf.report import check_overwrite, git_sha
from repro.runner import Job, ResultCache, WorkloadSpec, run_jobs
from repro.settings import Settings
from repro.workloads import spec
from repro.workloads.grpc_qps import GrpcQpsWorkload
from repro.workloads.pgbench import PgBenchWorkload

SPEC_SCALE = int(os.environ.get("REPRO_SPEC_SCALE", "256"))
PGBENCH_TX = int(os.environ.get("REPRO_PGBENCH_TX", "1500"))
GRPC_SECONDS = float(os.environ.get("REPRO_GRPC_SECONDS", "1.5"))

#: Conditions in the paper's order (fig. 2 includes Paint+sync).
CONDITIONS = (
    RevokerKind.NONE,
    RevokerKind.PAINT_SYNC,
    RevokerKind.CHERIVOKE,
    RevokerKind.CORNUCOPIA,
    RevokerKind.RELOADED,
)

#: Every (benchmark, input) pair for fig. 1.
SPEC_PAIRS = tuple(
    (bench, inp) for bench in spec.BENCHMARKS for inp in spec.inputs_of(bench)
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Sidecar recording which commit each results/ artifact was regenerated
#: at (name -> sha). ``report()`` consults it so a stale working tree
#: cannot silently clobber figures produced at another commit; set
#: ``REPRO_BENCH_FORCE=1`` to re-record anyway.
MANIFEST = RESULTS_DIR / "MANIFEST.json"


def _read_manifest() -> dict[str, str | None]:
    try:
        data = json.loads(MANIFEST.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def report(name: str, text: str) -> None:
    """Print a regenerated table/series and persist it.

    Refuses to overwrite an artifact the manifest says was recorded at a
    different commit (``REPRO_BENCH_FORCE=1`` overrides). Safe under
    concurrent writers (parallel campaign jobs may report
    simultaneously): the directory create is idempotent and files land
    via a same-directory temp file + atomic ``os.replace``.
    """
    banner = f"\n===== {name} =====\n"
    print(banner + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    manifest = _read_manifest()
    if (RESULTS_DIR / f"{name}.txt").exists():
        check_overwrite(
            manifest.get(name),
            sha,
            f"benchmarks/results/{name}.txt",
            force=Settings.from_env().bench_force,
        )
    _atomic_write(RESULTS_DIR / f"{name}.txt", text + "\n")
    manifest[name] = sha
    _atomic_write(MANIFEST, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cache() -> ResultCache | None:
    if os.environ.get("REPRO_CACHE", "1") == "0":
        return None
    return ResultCache()


def _sweep(jobs: list[Job]) -> list[RunResult]:
    """Run one figure sweep through the campaign engine."""
    return run_jobs(jobs, cache=_cache())


SpecResults = dict[tuple[str, str, RevokerKind], RunResult]


def compute_spec_results() -> SpecResults:
    """The SPEC CPU2006 sweep: every benchmark input under every
    condition, identical traces per condition (same seed)."""
    jobs = [
        Job(
            workload=WorkloadSpec(
                "spec", {"benchmark": bench, "input": inp, "scale": SPEC_SCALE}
            ),
            revoker=kind,
            key=(bench, inp, kind),
        )
        for bench, inp in SPEC_PAIRS
        for kind in CONDITIONS
    ]
    results = _sweep(jobs)
    return {job.key: result for job, result in zip(jobs, results)}


def compute_pgbench_results() -> dict[RevokerKind, RunResult]:
    """pgbench under every condition (fig. 5-7's runs)."""
    jobs = [
        Job(
            workload=WorkloadSpec("pgbench", {"transactions": PGBENCH_TX}),
            revoker=kind,
            key=kind,
        )
        for kind in CONDITIONS
    ]
    results = _sweep(jobs)
    return {job.key: result for job, result in zip(jobs, results)}


def compute_grpc_results() -> dict[RevokerKind, tuple[GrpcQpsWorkload, RunResult]]:
    """gRPC QPS under baseline/Cornucopia/Reloaded (§5.3 cannot run
    CHERIvoke either — the paper hit a bug; we follow its selection)."""
    jobs = [
        Job(
            workload=WorkloadSpec("grpc", {"duration_seconds": GRPC_SECONDS}),
            revoker=kind,
            config={"revoker_core": 2},
            key=kind,
        )
        for kind in (
            RevokerKind.NONE,
            RevokerKind.PAINT_SYNC,
            RevokerKind.CORNUCOPIA,
            RevokerKind.RELOADED,
        )
    ]
    results = _sweep(jobs)
    out: dict[RevokerKind, tuple[GrpcQpsWorkload, RunResult]] = {}
    for job, result in zip(jobs, results):
        # The figures read throughput off the workload object; rebuild it
        # and restore the completion counters from the run's latency
        # samples (one sample is recorded per completed request), since
        # cached/pooled runs executed in another process or session.
        w = GrpcQpsWorkload(duration_seconds=GRPC_SECONDS)
        w.completed = len(result.latencies)
        w.latencies_cycles = result.latency_cycles()
        out[job.key] = (w, result)
    return out


def geomean_inputs(
    results: SpecResults, bench: str, kind: RevokerKind, metric
) -> float:
    """Geomean of a per-run metric across a benchmark's inputs (the paper
    geomeans astar/bzip2/gobmk/hmmer input pairs in fig. 1)."""
    from repro.analysis.stats import geomean

    values = [
        metric(results[(bench, inp, kind)]) for inp in spec.inputs_of(bench)
    ]
    return geomean(values)
