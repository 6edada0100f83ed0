"""Time one workload's set-up in this fresh interpreter and print seconds.

Set-up is what a user pays before the first job runs: importing the
simulator, building the job list, and constructing the first job's
``Simulation``, the result cache and the executor. ``bench/run.py``
runs this several times and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import suite
    from repro.core.simulation import Simulation
    from repro.runner import PoolExecutor, ResultCache, build_config

    workload = suite.WORKLOADS[args.workload]
    first = workload.campaign(args.seed, args.smoke).expand()[0]
    Simulation(first.workload.build(), build_config(first))
    ResultCache(suite.WORK_DIR / "setup-probe")
    PoolExecutor(max_workers=workload.workers)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main())
