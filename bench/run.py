"""Host-time benchmark of the simulator: paper workloads and figure campaigns.

    PYTHONPATH=src python bench/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace] [--out FILE] [--smoke]

Each workload runs in its own fresh ``python`` child, one after another,
with every ``REPRO_*`` variable removed from its environment. Without
``--trace`` the end-to-end metrics are reported; with it, the per-layer
ones from a separate traced batch. Every metric prints as
``workload metric value unit``; the last line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``). The exit code is
non-zero when any job failed or produced a wrong result. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: In report order; bench/suite.py defines them.
WORKLOADS = ("spec-churn", "pgbench-sweep", "campaign", "campaign-warmstart")
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 9
#: A workload child that runs longer than this is killed and counted as
#: failed, so one invocation per workload ends within three minutes.
CHILD_TIMEOUT_S = 160


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> tuple[int, str]:
    """Run ``python argv...`` from the repo root in its own process group;
    on timeout or interrupt, kill the whole group (pool workers included)."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        print(f"bench: killed after {timeout:.0f}s: {' '.join(argv)}", file=sys.stderr)
        return -signal.SIGKILL, ""
    except BaseException:
        _kill_group(proc)
        raise
    return proc.returncode, out


def _kill_group(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def setup_seconds(workload: str, seed: int, smoke: bool) -> float | None:
    argv = [str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        code, out = run_child(argv, timeout=20)
        if code != 0:
            return None
        samples.append(float(out.split()[-1]))
    return statistics.median(samples)


def run_workload(workload: str, args: argparse.Namespace) -> dict[str, Any]:
    """Measure one workload in a fresh child; its result object."""
    setup = None
    if not args.trace:
        setup = setup_seconds(workload, args.seed, args.smoke)
    argv = [
        str(BENCH / "suite.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        argv.append("--trace")
    if args.smoke:
        argv.append("--smoke")
    code, out = run_child(argv, timeout=CHILD_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines or (setup is None and not args.trace):
        return {"workload": workload, "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    if setup is not None and result["metrics"]:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed, injected into every job (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default 25; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run instead")
    parser.add_argument("--out", type=Path, help="also write every workload's result here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one short batch")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 25.0

    started = time.time()
    results = {w: run_workload(w, args) for w in args.workload or WORKLOADS}
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")

    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (name if single else f"{workload}.{name}"): metric
            for workload, result in results.items()
            for name, metric in result["metrics"].items()
        },
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "started": started,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "workloads": results,
        }, indent=1))
    print(json.dumps(summary))
    return 0 if summary["correct"] and summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
