#!/usr/bin/env python
"""Microbenchmark: the vectorized sweep engine vs the scalar reference.

Times the two implementations of the sweep hot loops on identical state,
using the same rigs the continuous-benchmarking registry's ``sweep.*``
targets run (:mod:`repro.perf.targets` — the standalone script and
``repro bench`` measure the identical loops):

- **scan**: `Revoker.sweep_page` over a capability-dense heap with
  nothing condemned — the pure probe-all-tagged-granules loop that
  dominates every revocation epoch;
- **revoke**: the same sweep with half the allocations painted, so the
  masked tag-clearing store runs too;
- **stream**: `Cache.access_page` of a page working set larger than the
  cache — the batched LRU/eviction arithmetic under the sweep's memory
  traffic pattern.

The scalar reference is selected per-pass by patching the two fast
methods (``Revoker._scan_page_vector``, ``Cache._touch_span``) back onto
their reference loops; both passes run in this one process on freshly
built, identically seeded state.

Writes a schema-v1 :class:`~repro.perf.report.PerfReport` JSON (default
``BENCH_sweep.json`` in the repo root; per-pass wall samples under
``benchmarks``, best-of speedups under ``detail``) and exits non-zero if
any vectorized hot loop fails ``--min-speedup`` (default 1.0: vectorized
must at least not lose). An existing report recorded at a different git
sha is never silently clobbered — pass ``--force`` to re-record. CI runs
this as a perf smoke test; the committed baseline was produced by::

    PYTHONPATH=src python benchmarks/bench_sweep_micro.py --force
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import PerfError  # noqa: E402
from repro.kernel.revoker.base import Revoker  # noqa: E402
from repro.machine.cache import Bus, Cache  # noqa: E402
from repro.machine.costs import PAGE_BYTES  # noqa: E402
from repro.perf.registry import WALL  # noqa: E402
from repro.perf.report import (  # noqa: E402
    BenchmarkResult,
    MetricSeries,
    PerfReport,
    check_overwrite,
    git_sha,
    recorded_sha,
)
from repro.perf.targets import (  # noqa: E402
    build_sweep_rig,
    cache_stream,
    sweep_paint,
    sweep_replant,
    sweep_scan,
    sweep_unpaint,
    sweep_victims,
)


def timed(fn, reps: int) -> list[float]:
    """Wall seconds per call of ``fn``, one sample per repetition."""
    samples = []
    for _ in range(reps):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return samples


def bench_scan(pages: int, caps_per_page: int, reps: int) -> list[float]:
    rig = build_sweep_rig(pages, caps_per_page)
    return timed(lambda: sweep_scan(rig), reps)


def bench_revoke(pages: int, caps_per_page: int, reps: int) -> list[float]:
    rig = build_sweep_rig(pages, caps_per_page)
    victims = sweep_victims(rig)
    samples = []
    for _ in range(reps):
        sweep_replant(rig, victims)
        sweep_paint(rig, victims)
        began = time.perf_counter()
        sweep_scan(rig)
        samples.append(time.perf_counter() - began)
        sweep_unpaint(rig, victims)
    return samples


def bench_stream(pages: int, reps: int) -> list[float]:
    # 16-page cache streaming a larger footprint: steady-state evictions,
    # the background sweep's traffic pattern.
    cache = Cache(Bus(), "bench", capacity_bytes=16 * PAGE_BYTES)
    return timed(lambda: cache_stream(cache, pages), reps)


def run_pass(
    scalar: bool, pages: int, caps_per_page: int, reps: int
) -> dict[str, list[float]]:
    fast = Revoker._scan_page_vector, Cache._touch_span
    if scalar:
        Revoker._scan_page_vector = Revoker._scan_page_scalar
        Cache._touch_span = Cache._touch_loop
    try:
        return {
            "scan": bench_scan(pages, caps_per_page, reps),
            "revoke": bench_revoke(pages, caps_per_page, max(2, reps // 2)),
            "stream": bench_stream(4 * pages, reps),
        }
    finally:
        Revoker._scan_page_vector, Cache._touch_span = fast


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_sweep.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail unless every vectorized hot loop beats scalar by this factor",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small working set and few reps (CI smoke)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite a report recorded at a different git sha",
    )
    args = parser.parse_args(argv)

    if args.out.exists():
        try:
            existing = json.loads(args.out.read_text())
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict):
            try:
                check_overwrite(
                    recorded_sha(existing), git_sha(), str(args.out), args.force
                )
            except PerfError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2

    pages, caps_per_page, reps = (16, 64, 3) if args.quick else (64, 128, 5)
    scalar = run_pass(True, pages, caps_per_page, reps)
    vector = run_pass(False, pages, caps_per_page, reps)
    # Best-of comparison, like the original harness: the minimum is the
    # least-noise estimate of each loop's cost.
    speedups = {key: min(scalar[key]) / min(vector[key]) for key in scalar}

    config = {
        "pages": pages,
        "caps_per_page": caps_per_page,
        "reps": reps,
        "quick": args.quick,
    }
    report = PerfReport(
        suite="sweep-micro",
        config=config,
        benchmarks={
            f"sweep.{key}" if key != "stream" else "cache.stream": BenchmarkResult(
                metrics={
                    "wall_s": MetricSeries(kind=WALL, samples=vector[key]),
                    "scalar_wall_s": MetricSeries(kind=WALL, samples=scalar[key]),
                },
                config=config,
            )
            for key in scalar
        },
        detail={"speedup": {k: round(v, 2) for k, v in speedups.items()}},
    )
    report.save(args.out)

    for key, factor in speedups.items():
        print(
            f"{key:>7}: scalar {min(scalar[key]) * 1e3:8.2f} ms  "
            f"vectorized {min(vector[key]) * 1e3:8.2f} ms  "
            f"speedup {factor:5.2f}x"
        )
    print(f"report written to {args.out}")

    slowest = min(speedups, key=speedups.get)
    if speedups[slowest] < args.min_speedup:
        print(
            f"FAIL: {slowest} speedup {speedups[slowest]:.2f}x "
            f"< required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
