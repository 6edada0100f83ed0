"""``repro serve`` — the long-running simulation service daemon, and
``repro serve bench`` — its load generator. docs/SERVING.md.

``serve bench`` is forwarded verbatim to the load generator's own
argparse by ``main()`` (argparse.REMAINDER cannot capture leading
``--options``, bpo-17050), so the ``serve`` parser here only carries the
daemon flags.
"""

from __future__ import annotations

import argparse


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service daemon until drained (docs/SERVING.md)."""
    from repro.serve.server import ServeConfig, SimulationServer

    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_bound=args.queue,
        job_timeout_s=args.job_timeout,
        drain_timeout_s=args.drain_timeout,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        snapshot_dir=args.snapshot_dir,
        prefix_dir=args.prefix_dir,
        max_line_bytes=args.max_line_bytes,
    )
    return SimulationServer(config).run()


def register(sub: argparse._SubParsersAction) -> None:
    from repro.serve.server import DEFAULT_MAX_LINE_BYTES

    p = sub.add_parser(
        "serve",
        help="run the long-lived simulation service (docs/SERVING.md)",
        epilog="load-generate against a daemon with: repro serve bench "
               "(see repro serve bench --help)",
    )
    p.add_argument("--socket", default=None,
                   help="listen on this unix socket path")
    p.add_argument("--host", default=None,
                   help="listen on this TCP host (with --port)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; printed at startup)")
    p.add_argument("--workers", type=int, default=None,
                   help="concurrent job processes, one forked per job "
                        "(default: $REPRO_SERVE_WORKERS or 2)")
    p.add_argument("--queue", type=int, default=None,
                   help="admission bound before 'overloaded' rejections "
                        "(default: $REPRO_SERVE_QUEUE or 64)")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="seconds one job process may run "
                        "(default: $REPRO_SERVE_JOB_TIMEOUT or unlimited)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to finish in-flight work on shutdown")
    p.add_argument("--cache-dir", default=None,
                   help="result cache root (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro/results)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without reading or writing the result cache")
    p.add_argument("--snapshot-dir", default=None,
                   help="checkpoint snapshot-capable jobs into this directory "
                        "(retried requests resume from the last checkpoint; "
                        "default: $REPRO_SNAPSHOT_DIR)")
    p.add_argument("--prefix-dir", default=None,
                   help="warm-start prefix store: jobs fork sweep siblings "
                        "from one shared warmup checkpoint (docs/WARMSTART.md; "
                        "default: $REPRO_PREFIX_DIR)")
    p.add_argument("--max-line-bytes", type=int, default=DEFAULT_MAX_LINE_BYTES,
                   help="request-line size limit in bytes (default 1 MiB; "
                        "raise it when dist coordinators push prefix blobs "
                        "bigger than that through prefix-put)")
    p.set_defaults(fn=cmd_serve)
