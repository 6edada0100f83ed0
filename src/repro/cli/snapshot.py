"""``repro snapshot`` — checkpoint tools: save/resume/inspect, plus the
warm-start prefix store (``snapshot prefix list|warm``). docs/SNAPSHOT.md,
docs/WARMSTART.md."""

from __future__ import annotations

import argparse
import sys

from repro import settings
from repro.analysis import format_table
from repro.cli._common import _check_workload_name, _kind
from repro.core.config import RevokerKind
from repro.errors import ReproError
from repro.workloads import spec


def _cmd_snapshot_prefix(args: argparse.Namespace) -> int:
    """Warm-start prefix store tools: ``list`` (stored prefixes and
    their provenance) and ``warm`` (pre-capture every prefix a campaign
    spec will need). docs/WARMSTART.md."""
    from pathlib import Path

    from repro.snapshot import read_header
    from repro.snapshot.prefix import (
        PrefixStore,
        default_prefix_dir,
        prefix_key,
    )

    root = Path(args.prefix_dir) if args.prefix_dir else default_prefix_dir()
    store = PrefixStore(root)

    if args.prefix_cmd == "list":
        paths = store.paths()
        if not paths:
            print(f"no prefixes stored under {root}")
            return 0
        rows = []
        for path in paths:
            header = read_header(path.read_bytes())
            rows.append([
                path.stem[:12],
                header.get("workload", "?"),
                header.get("revoker", "?"),
                header.get("epoch", "?"),
                path.stat().st_size >> 10,
            ])
        print(format_table(
            ["prefix", "workload", "captured under", "epoch", "KiB"],
            rows,
            title=f"{len(paths)} prefixes in {root}",
        ))
        return 0

    # warm: run one representative job per missing prefix group so a
    # later campaign (or serve daemon) starts with every prefix hot.
    from repro.cli.campaign import load_campaign
    from repro.runner.campaign import execute_job, prefix_eligible

    campaign = load_campaign(args.spec)
    settings.set_env("prefix_dir", str(root))
    groups: dict = {}
    for job in campaign.expand():
        if prefix_eligible(job):
            groups.setdefault(prefix_key(job), job)
    present = sum(1 for key in groups if key in store)
    captured = missed = 0
    for key in sorted(groups):
        if key in store:
            continue
        execute_job(groups[key])
        if key in store:
            captured += 1
        else:
            # The capture window closed before the threshold poll (tiny
            # run, early trigger): the campaign will run this group cold.
            missed += 1
    print(
        f"{len(groups)} prefix groups: {present} already stored, "
        f"{captured} captured, {missed} without a capture window "
        f"(store: {root})"
    )
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Checkpoint tools: ``save`` (run with checkpointing, keep one),
    ``resume`` (continue a checkpoint to completion), ``inspect``
    (print a checkpoint's provenance header), ``prefix`` (warm-start
    prefix store; docs/WARMSTART.md). docs/SNAPSHOT.md."""
    import json
    from pathlib import Path

    from repro.runner.serialize import dumps_result
    from repro.snapshot import read_header, restore_simulation

    def write_result(result, path: str | None) -> None:
        if path:
            Path(path).write_text(dumps_result(result) + "\n")

    if args.snapshot_cmd == "prefix":
        return _cmd_snapshot_prefix(args)

    if args.snapshot_cmd == "inspect":
        try:
            data = Path(args.path).read_bytes()
        except OSError as exc:
            raise ReproError(f"cannot read checkpoint: {exc}") from exc
        print(json.dumps(read_header(data), indent=2, sort_keys=True))
        return 0

    if args.snapshot_cmd == "resume":
        try:
            data = Path(args.path).read_bytes()
        except OSError as exc:
            raise ReproError(f"cannot read checkpoint: {exc}") from exc
        sim, header = restore_simulation(data)
        result = sim.resume()
        write_result(result, args.result)
        print(
            f"resumed {header['workload']}/{header['revoker']} from epoch "
            f"{header['epoch']} (capture #{header['sequence']}): "
            f"wall {result.wall_cycles} cycles, "
            f"{result.revocations} revocations"
        )
        return 0

    # save
    from repro.core.config import SimulationConfig
    from repro.core.simulation import Simulation
    from repro.errors import ConfigError
    from repro.snapshot import SnapshotPlan, SnapshotSession

    _check_workload_name(args.workload)
    if args.workload in ("pgbench", "grpc"):
        raise ConfigError(
            f"{args.workload} does not support snapshots (external-protocol "
            "workload); use a spec churn workload"
        )
    if "." in args.workload:
        bench, inp = args.workload.split(".", 1)
        workload = spec.workload(bench, inp, scale=args.scale, seed=args.seed)
    else:
        workload = spec.workload(args.workload, scale=args.scale, seed=args.seed)

    cfg = SimulationConfig(revoker=args.revoker)
    if args.memory_mib is not None:
        cfg.machine.memory_bytes = args.memory_mib << 20
    every_checks = args.every_checks
    if args.revoker is RevokerKind.NONE and every_checks is None:
        every_checks = 64
    sim = Simulation(workload, cfg)
    session = SnapshotSession(
        sim,
        SnapshotPlan(every_epochs=args.every_epochs, every_checks=every_checks),
    )
    result = sim.run(snapshots=session)
    write_result(result, args.result)
    if not session.captured:
        print(
            f"no checkpoints captured (run completed before the cadence "
            f"fired; {result.revocations} revocations) — nothing written",
            file=sys.stderr,
        )
        return 1
    try:
        blob = session.captured[args.capture_index]
        header = session.headers[args.capture_index]
    except IndexError:
        raise ReproError(
            f"--capture-index {args.capture_index} out of range "
            f"({len(session.captured)} captures)"
        ) from None
    Path(args.out).write_bytes(blob)
    print(
        f"{len(session.captured)} captures; wrote #{header['sequence']} "
        f"(epoch {header['epoch']}, {len(blob)} bytes) to {args.out}"
    )
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "snapshot",
        help="save/resume/inspect simulation checkpoints (docs/SNAPSHOT.md)",
    )
    ssub = p.add_subparsers(dest="snapshot_cmd", required=True)
    pss = ssub.add_parser(
        "save",
        help="run a workload with checkpointing on and save one checkpoint",
    )
    pss.add_argument("workload", help="a spec churn workload, e.g. hmmer.retro")
    pss.add_argument("revoker", nargs="?", default="reloaded", type=_kind)
    pss.add_argument("--scale", type=int, default=512,
                     help="workload scale divisor (default: 512)")
    pss.add_argument("--seed", type=int, default=1)
    pss.add_argument("--memory-mib", type=int, default=None,
                     help="shrink simulated physical memory to this many MiB "
                          "(smaller checkpoints)")
    pss.add_argument("--every-epochs", type=int, default=1,
                     help="capture cadence in completed epochs (default: 1)")
    pss.add_argument("--every-checks", type=int, default=None,
                     help="capture cadence in work-unit polls; required for "
                          "the none revoker (default there: 64)")
    pss.add_argument("--capture-index", type=int, default=0,
                     help="which capture to write (default: first; -1: last)")
    pss.add_argument("--out", default="checkpoint.ckpt",
                     help="checkpoint output path (default: checkpoint.ckpt)")
    pss.add_argument("--result", default=None,
                     help="also write the straight-through RunResult JSON here")
    psr = ssub.add_parser("resume", help="continue a checkpoint to completion")
    psr.add_argument("path")
    psr.add_argument("--result", default=None,
                     help="write the resumed RunResult JSON here (bit-identical "
                          "to the straight-through run's)")
    psi = ssub.add_parser("inspect", help="print a checkpoint's header")
    psi.add_argument("path")
    psp = ssub.add_parser(
        "prefix",
        help="warm-start prefix store tools (docs/WARMSTART.md)",
    )
    ppsub = psp.add_subparsers(dest="prefix_cmd", required=True)
    ppl = ppsub.add_parser("list", help="stored prefixes and their provenance")
    ppl.add_argument("--prefix-dir", default=None,
                     help="prefix store root (default: $REPRO_PREFIX_DIR or "
                          "~/.cache/repro/prefixes)")
    ppw = ppsub.add_parser(
        "warm",
        help="pre-capture every prefix a campaign spec will need",
    )
    ppw.add_argument("spec", help="campaign spec JSON file (see docs/RUNNER.md)")
    ppw.add_argument("--prefix-dir", default=None,
                     help="prefix store root (default: $REPRO_PREFIX_DIR or "
                          "~/.cache/repro/prefixes)")
    p.set_defaults(fn=cmd_snapshot)
