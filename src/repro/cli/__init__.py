"""Command-line interface: ``python -m repro <command>``.

Commands (one module per command in this package, each exposing
``register(subparsers)``):

- ``run``      one workload under one strategy, print the run summary;
- ``compare``  one workload under every strategy, print the overhead table;
- ``attack``   the adversarial UAF scenario per strategy (the security demo);
- ``pgbench``  the interactive-latency percentiles per strategy;
- ``campaign`` a declarative experiment campaign (parallel + cached);
  with ``--nodes`` it shards across serve daemons (docs/DIST.md);
- ``dist``     multi-node campaign tools: ``status`` probes node health,
  ``run`` is campaign with a mandatory ``--nodes``;
- ``trace``    allocation traces (synth/stats/replay) **and** structured
  observability traces: ``record`` a run's event trace, ``summarize`` its
  per-epoch breakdown, ``diff`` two traces (e.g. cornucopia vs reloaded
  STW time), ``validate`` against the event schema, and ``export-chrome``
  for chrome://tracing (docs/OBSERVABILITY.md);
- ``check``    schedule exploration under seeded policies with the
  temporal-safety oracles attached (docs/CHECKING.md);
- ``serve``    the long-running simulation service: one forked process per
  job behind a Unix/TCP socket, request dedup against the result cache,
  admission control, live health/stats (docs/SERVING.md); ``serve
  bench`` is its load generator;
- ``bench``    the simulated-behaviour gate: the golden ``RunResult``
  corpus ``perf/corpus.json`` (docs/BENCHMARKING.md);
- ``snapshot`` save/resume/inspect checkpoints and the warm-start prefix
  store (docs/SNAPSHOT.md, docs/WARMSTART.md);
- ``list``     the available workloads and strategies (``--json`` for
  machines).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import (
        attack,
        bench,
        campaign,
        check,
        compare,
        dist,
        listing,
        pgbench,
        run,
        serve,
        snapshot,
        trace,
        verify_paper,
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cornucopia Reloaded reproduction: CHERI temporal-safety "
        "revocation on a simulated machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    listing.register(sub)
    run.register(sub)
    compare.register(sub)
    attack.register(sub)
    pgbench.register(sub)
    verify_paper.register(sub)
    campaign.register(sub)
    dist.register(sub)
    trace.register(sub)
    check.register(sub)
    serve.register(sub)
    snapshot.register(sub)
    bench.register(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        # The serve load generator owns its own argparse, and REMAINDER
        # cannot capture leading --options (bpo-17050), so it is
        # forwarded verbatim before the main parser runs.
        if argv[:2] == ["serve", "bench"]:
            from repro.serve.bench import main as bench_main

            return bench_main(argv[2:])
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
