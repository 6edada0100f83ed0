"""Re-record the golden result digests in bench/expected/.

    PYTHONPATH=src python bench/golden.py

For every seed in :data:`SEEDS` and both input sizes, runs each golden
table's jobs cold (two pool workers, no cache, no warm start, no
``REPRO_*`` settings) and writes the sha256 of each serialized result,
keyed by job label. The benchmark fails any run whose results differ, so
re-record only for a deliberate change of simulated behaviour, and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

from repro.runner import PoolExecutor, run_campaign

from suite import EXPECTED_DIR, WORKLOADS, digest, expected_path

#: Seeds with golden digests, per input size (``True`` = ``--smoke``).
SEEDS = {False: range(1, 11), True: (1, 2)}


def digest_tables(seed: int, smoke: bool) -> dict[str, dict[str, str]]:
    tables: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        if workload.golden in tables:
            continue
        done = run_campaign(workload.campaign(seed, smoke), executor=PoolExecutor(max_workers=2))
        tables[workload.golden] = {
            job.describe(): digest(result) for job, result in zip(done.jobs, done.results)
        }
    return tables


def main() -> int:
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    EXPECTED_DIR.mkdir(exist_ok=True)
    for smoke, seeds in SEEDS.items():
        for seed in seeds:
            path = expected_path(seed, smoke)
            path.write_text(json.dumps(digest_tables(seed, smoke), indent=1, sort_keys=True) + "\n")
            print(path.relative_to(EXPECTED_DIR.parent.parent), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
