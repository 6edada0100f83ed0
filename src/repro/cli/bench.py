"""``repro bench`` — check simulated behaviour against the golden corpus.

Runs the corpus matrix in this process and compares every result's
digest with ``perf/corpus.json`` (docs/BENCHMARKING.md). Exit codes: 0
every entry matches, 1 an entry changed, is missing or is new (each is
printed with its current wall cycles, bus transactions and
revocations), 2 a usage or I/O error. ``--record`` rewrites the corpus;
over a corpus recorded at another commit it also needs ``--force``.
"""

from __future__ import annotations

import argparse


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.perf import corpus

    path = corpus.CORPUS_PATH
    if args.record:
        corpus.check_record(path, force=args.force)
        results = corpus.run()
        corpus.record(results, path)
        print(f"corpus: recorded {len(results)} entries to {path}")
        return 0

    expected = corpus.load(path)
    results = corpus.run()
    differ = corpus.compare(expected, results)
    if not differ:
        print(f"corpus: all {len(results)} entries match {path}")
        return 0
    rows = []
    for name, verdict in differ.items():
        current: list[object] = ["-"] * 3
        r = results.get(name)
        if r is not None:
            current = [r.wall_cycles, r.total_bus_transactions, r.revocations]
        rows.append([name, verdict, *current])
    print(format_table(
        ["job", "verdict", "wall cycles", "bus", "revocations"],
        rows,
        title=f"corpus: {len(differ)} entries differ from {path}",
    ))
    return 1


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "bench",
        help="check simulated behaviour against the golden RunResult corpus "
             "(docs/BENCHMARKING.md)",
    )
    p.add_argument("--record", action="store_true",
                   help="rewrite perf/corpus.json from this run")
    p.add_argument("--force", action="store_true",
                   help="allow --record over a corpus recorded at another "
                        "commit")
    p.set_defaults(fn=cmd_bench)
