"""``repro campaign`` — a declarative experiment campaign, run through
the local parallel cached runner or sharded across serve daemons with
``--nodes`` (docs/RUNNER.md, docs/DIST.md)."""

from __future__ import annotations

import argparse
import sys

from repro import settings
from repro.analysis import format_table
from repro.errors import ReproError
from repro.machine.costs import cycles_to_micros


def load_campaign(path: str):
    """Read and validate a campaign spec JSON file."""
    import json
    from pathlib import Path

    from repro.runner import CampaignSpec

    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ReproError(f"cannot read campaign spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"campaign spec is not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(data)


def cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from repro.machine.costs import cycles_to_seconds
    from repro.runner import (
        CampaignJobError,
        CampaignProgress,
        ResultCache,
        run_jobs,
    )

    campaign = load_campaign(args.spec)
    jobs = campaign.expand()
    if args.trace_dir:
        # Workers inherit this through the pool's fork, so every fresh job
        # records a per-job trace artifact (see runner.campaign.execute_job).
        settings.set_env("trace_dir", args.trace_dir)
    if args.warm_start or args.prefix_dir:
        # Warm-start: jobs sharing a workload prefix fork from one stored
        # checkpoint instead of cold-simulating the warmup (docs/WARMSTART.md).
        from repro.snapshot.prefix import default_prefix_dir

        settings.set_env(
            "prefix_dir", args.prefix_dir or str(default_prefix_dir())
        )

    if args.dry_run:
        for job in jobs:
            print(job.describe())
        print(f"{len(jobs)} jobs")
        return 0

    executor = None
    nodes = getattr(args, "nodes", None)
    if nodes:
        if args.jobs is not None:
            raise ReproError(
                "--jobs selects local worker processes; with --nodes the "
                "daemons' own job slots do the work"
            )
        from repro.dist import DistributedExecutor, parse_nodes

        executor = DistributedExecutor(
            parse_nodes(nodes),
            warm_start=bool(args.warm_start or args.prefix_dir),
        )

    max_workers = args.jobs
    if max_workers == 0:
        max_workers = os.cpu_count() or 1
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    echo = None if args.quiet else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    progress = CampaignProgress(len(jobs), echo=echo)
    try:
        if executor is not None:
            results = executor.run(
                jobs, cache=cache, timeout_s=args.timeout, progress=progress
            )
        else:
            results = run_jobs(
                jobs,
                max_workers=max_workers,
                cache=cache,
                timeout_s=args.timeout,
                progress=progress,
            )
    except CampaignJobError as exc:
        # The jobs that finished are still results: keep them.
        if args.results_dir:
            _write_results(args.results_dir, jobs, exc.results)
        raise

    rows = []
    for job, r in zip(jobs, results):
        pause = cycles_to_micros(max(r.stw_pauses)) if r.stw_pauses else 0.0
        rows.append([
            job.describe(),
            f"{r.wall_seconds:.3f}",
            f"{cycles_to_seconds(r.total_cpu_cycles):.3f}",
            r.total_bus_transactions,
            r.peak_rss_bytes >> 20,
            r.revocations,
            f"{pause:.1f}us",
        ])
    print(format_table(
        ["job", "wall s", "cpu s", "bus", "rss MiB", "revocations", "max pause"],
        rows,
        title=f"campaign {campaign.name!r}: {len(jobs)} jobs",
    ))
    print(progress.summary())

    if args.results_dir:
        _write_results(args.results_dir, jobs, results)
    return 0


def _write_results(directory: str, jobs, results) -> None:
    """One canonical-JSON file per finished job, named by its trace slug:
    byte-comparable across runs (the CI warm-start and dist smoke jobs
    cmp these against a reference sweep). A failed job (``None``) writes
    nothing."""
    from pathlib import Path

    from repro.runner.campaign import job_trace_slug
    from repro.runner.serialize import dumps_result

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for job, r in zip(jobs, results):
        if r is not None:
            (out / f"{job_trace_slug(job)}.json").write_text(dumps_result(r) + "\n")


def add_campaign_arguments(
    p: argparse.ArgumentParser, *, nodes_required: bool = False
) -> None:
    """The campaign option set; shared with ``repro dist run`` (which
    makes ``--nodes`` mandatory)."""
    p.add_argument("spec", help="campaign spec JSON file (see docs/RUNNER.md)")
    p.add_argument("--nodes", default=None, required=nodes_required,
                   help="shard the campaign across these serve daemons "
                        "(comma-separated unix socket paths or host:port; "
                        "docs/DIST.md)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: $REPRO_JOBS or 1; 0 = all "
                        "CPUs; local mode only)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro/results)")
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate everything, do not read or write the cache")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds")
    p.add_argument("--dry-run", action="store_true",
                   help="print the expanded job matrix and exit")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.add_argument("--trace-dir", default=None,
                   help="record a per-job observability trace JSONL into this "
                        "directory (cache hits skip execution: combine with "
                        "--no-cache for full coverage)")
    p.add_argument("--warm-start", action="store_true",
                   help="share simulation prefixes across the sweep: capture "
                        "each group's warmup once and fork every sibling job "
                        "from it (docs/WARMSTART.md)")
    p.add_argument("--prefix-dir", default=None,
                   help="warm-start prefix store root (implies --warm-start; "
                        "default: $REPRO_PREFIX_DIR or ~/.cache/repro/prefixes)")
    p.add_argument("--results-dir", default=None,
                   help="write each job's RunResult as canonical JSON into "
                        "this directory (byte-comparable across runs)")


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "campaign",
        help="run a declarative experiment campaign (parallel, cached)",
    )
    add_campaign_arguments(p)
    p.set_defaults(fn=cmd_campaign)
