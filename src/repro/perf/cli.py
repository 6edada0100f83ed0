"""``python -m repro bench`` — the continuous-benchmarking commands.

- ``run``       execute a suite (``--compare`` gates against the suite's
  baseline, ``--record`` writes the fresh report as that baseline);
- ``compare``   gate one report JSON against its suite's baseline or
  another file;
- ``list``      the registered catalog.

Exit codes are machine-readable: 0 every deterministic metric matches
the baseline exactly, 1 at least one changed, went missing or is new
(wall-clock series are printed, never judged), 2 usage or I/O error (via
the top-level CLI's :class:`~repro.errors.ReproError` handler).
docs/BENCHMARKING.md documents the workflow.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import PerfError
from repro.perf.baselines import BaselineStore
from repro.perf.registry import WALL, catalog
from repro.perf.regression import compare_reports
from repro.perf.report import PerfReport
from repro.perf.runner import Runner


def _fmt(value: float | None, kind: str) -> str:
    if value is None:
        return "-"
    # Deterministic values print in full: a one-cycle change must show.
    return f"{value:.6g}" if kind == WALL else f"{value:.15g}"


def _gate(baseline: PerfReport, current: PerfReport, as_json: bool) -> int:
    """Print the comparison of ``current`` against ``baseline``; return
    its exit code."""
    comparison = compare_reports(baseline, current)
    if as_json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return comparison.exit_code()
    from repro.analysis import format_table

    rows = [
        [
            r.benchmark,
            r.metric,
            r.kind,
            _fmt(r.baseline_median, r.kind),
            _fmt(r.current_median, r.kind),
            "-" if r.ratio is None else f"{r.ratio:.3f}x",
            r.verdict or "-",
            r.note,
        ]
        for r in comparison.rows
    ]
    print(format_table(
        ["benchmark", "metric", "kind", "baseline", "current", "ratio",
         "verdict", "note"],
        rows,
        title=f"perf comparison: {comparison.current_suite} vs baseline "
              "(wall-clock rows are medians, never judged)",
    ))
    print(comparison.summary())
    return comparison.exit_code()


def _echo(name: str, took: float, metrics: int) -> None:
    print(f"  {name}: {took:.2f}s, {metrics} metrics", file=sys.stderr, flush=True)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_cmd == "list":
        defs = catalog()
        if args.json:
            print(json.dumps(
                {
                    name: {
                        "suites": list(d.suites),
                        "description": d.description,
                        "smoke_reps": d.smoke_reps,
                        "full_reps": d.full_reps,
                        "warmup": d.warmup,
                    }
                    for name, d in defs.items()
                },
                indent=2,
                sort_keys=True,
            ))
            return 0
        for name, d in defs.items():
            suites = ",".join(d.suites)
            print(f"  {name:22s} [{suites}] {d.description}")
        return 0

    store = BaselineStore(args.baseline_dir)

    if args.bench_cmd == "compare":
        current = PerfReport.load(args.report)
        if args.against:
            baseline = PerfReport.load(args.against)
        else:
            baseline = store.load(current.suite)
        return _gate(baseline, current, args.json)

    if args.bench_cmd == "run":
        mode = args.mode or ("smoke" if args.suite == "smoke" else "full")
        runner = Runner(mode=mode, reps=args.reps, warmup=args.warmup)
        progress = None if args.quiet else _echo
        report = runner.run(
            suite=args.suite, pattern=args.filter, progress=progress
        )
        if args.out:
            report.save(args.out)
            print(f"report written to {args.out}", file=sys.stderr)
        if args.record:
            path = store.record(report, force=args.force)
            print(f"baseline {report.suite!r} written to {path}")
        if args.compare:
            return _gate(store.load(report.suite), report, args.json)
        if not args.record and not args.out:
            # A run nobody consumed: print the medians so it wasn't silent.
            for name, bench in sorted(report.benchmarks.items()):
                for metric, series in sorted(bench.metrics.items()):
                    mid = sorted(series.samples)[len(series.samples) // 2]
                    print(f"  {name}/{metric} [{series.kind}]: {mid:.6g}")
        return 0

    raise PerfError(f"unknown bench command {args.bench_cmd!r}")


def add_bench_parser(sub: argparse._SubParsersAction) -> None:
    """Wire the ``bench`` command tree into the top-level CLI."""
    p = sub.add_parser(
        "bench",
        help="gate simulated behaviour: run suites, compare against "
             "baselines (docs/BENCHMARKING.md)",
    )
    bsub = p.add_subparsers(dest="bench_cmd", required=True)

    def common(pp: argparse.ArgumentParser) -> None:
        pp.add_argument("--baseline-dir", default=None,
                        help="directory of <suite>.json baselines "
                             "(default: perf/baselines)")
        pp.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    pr = bsub.add_parser("run", help="execute a benchmark suite")
    pr.add_argument("--suite", default="smoke",
                    help="suite to run (smoke, full, sweep; default: smoke)")
    pr.add_argument("--filter", default=None,
                    help="glob over benchmark names (e.g. 'sweep.*')")
    pr.add_argument("--mode", choices=["smoke", "full"], default=None,
                    help="working-set sizing (default: follows --suite)")
    pr.add_argument("--reps", type=int, default=None,
                    help="override per-benchmark repetition counts")
    pr.add_argument("--warmup", type=int, default=None,
                    help="override per-benchmark warmup repetitions")
    pr.add_argument("--out", default=None,
                    help="write the PerfReport JSON here")
    pr.add_argument("--compare", action="store_true",
                    help="gate against the suite's baseline (exit 1 when "
                         "a deterministic metric differs)")
    pr.add_argument("--record", action="store_true",
                    help="write this run as the suite's baseline")
    pr.add_argument("--force", action="store_true",
                    help="allow --record to overwrite a baseline recorded "
                         "at a different git sha")
    pr.add_argument("--quiet", action="store_true",
                    help="suppress per-benchmark progress lines")
    common(pr)

    pc = bsub.add_parser("compare", help="gate a report against a baseline")
    pc.add_argument("report", help="current PerfReport JSON")
    pc.add_argument("--against", default=None,
                    help="explicit baseline report JSON (default: the "
                         "report's suite baseline)")
    common(pc)

    pl = bsub.add_parser("list", help="the registered benchmark catalog")
    pl.add_argument("--json", action="store_true")

    p.set_defaults(fn=cmd_bench)
