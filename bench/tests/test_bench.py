"""Tests of the benchmark itself: ``pytest bench/tests`` from the repo root."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import layers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, bench: Path = BENCH, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def metric_lines(stdout: str) -> list[tuple[str, str, float, str]]:
    """The ``workload metric value unit`` lines of a run."""
    rows = []
    for line in stdout.splitlines()[:-1]:
        workload, name, value, unit = line.split()
        rows.append((workload, name, float(value), unit))
    return rows


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[subprocess.CompletedProcess, float]:
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    start = time.monotonic()
    proc = run_bench("--smoke", "--out", str(out))
    return proc, time.monotonic() - start


@pytest.fixture(scope="module")
def traced_smoke() -> subprocess.CompletedProcess:
    return run_bench("--smoke", "--trace")


def test_smoke_run_of_every_workload_is_correct_and_fast(smoke):
    proc, elapsed = smoke
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 90
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    workloads = {row[0] for row in metric_lines(proc.stdout)}
    assert workloads == {w["name"] for w in DECLARED["workloads"]}


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_emitted_name_is_declared(kind, smoke, traced_smoke):
    proc = smoke[0] if kind == "end_to_end" else traced_smoke
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    emitted: dict[str, set[str]] = {}
    for workload, name, _value, unit in metric_lines(proc.stdout):
        assert NAME.fullmatch(name), name
        assert declared.get(name) == unit, (name, unit)
        emitted.setdefault(workload, set()).add(name)
    for names in emitted.values():
        assert names == set(declared)


def _bindings() -> dict[str, dict[str, object]]:
    owners = {
        name: module for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
    }
    for points in layers.ENTRY_POINTS.values():
        for module, cls, _ in points:
            if cls is not None:
                owners[f"{module}.{cls}"] = getattr(sys.modules[module], cls)
    owners["Workload"] = sys.modules["repro.workloads.base"].Workload
    owners["MrsShim"] = sys.modules["repro.alloc.mrs"].MrsShim
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def test_wrappers_restore_every_patched_attribute(tmp_path):
    for module in layers._PRELOAD:
        importlib.import_module(module)
    before = _bindings()
    patches = layers.install(layers.Recorder(tmp_path))
    patched = _bindings()
    changed = {(o, a) for o, attrs in before.items() for a, v in attrs.items() if patched[o].get(a) is not v}
    assert ("repro.machine.cache.Cache", "access_range") in changed
    assert ("repro.runner.pool", "result_to_dict") in changed
    patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        assert all(after[owner][a] is v for a, v in attrs.items()), owner


def test_span_self_times_account_for_the_root_spans(tmp_path):
    import suite
    from repro.runner import PoolExecutor, run_campaign

    recorder = layers.Recorder(tmp_path / "spans")
    patches = layers.install(recorder)
    try:
        for name in ("spec-churn", "campaign-warmstart"):
            workload = suite.WORKLOADS[name]
            spec = workload.campaign(1, True)
            executor = PoolExecutor(max_workers=workload.workers)
            recorder.timed("other", "batch", lambda: run_campaign(spec, executor=executor))()
    finally:
        patches.restore()
    assert recorder.merge() == 10  # one record per pooled job

    for (layer, function), (calls, self_s, inclusive_s) in recorder.totals.items():
        assert -1e-9 <= self_s <= inclusive_s + 1e-9, (layer, function)
    children: dict[tuple[int, int], float] = {}
    for pid, _id, parent, _layer, _function, start, end in recorder.samples:
        children[(pid, parent)] = children.get((pid, parent), 0.0) + (end - start)
    for pid, span_id, _parent, _layer, _function, start, end in recorder.samples:
        assert children.get((pid, span_id), 0.0) <= (end - start) + 1e-9

    accounted = sum(t["self_s"] for t in recorder.layer_totals().values())
    assert abs(accounted - recorder.root_s) <= 0.05 * recorder.root_s
    assert set(layers.LAYERS) <= set(recorder.layer_totals())


def _copy_bench(dest: Path) -> Path:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest / "bench"


def test_injected_digest_mismatch_fails_the_run(tmp_path):
    bench = _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden = bench / "expected" / "smoke-seed1.json"
    tables = json.loads(golden.read_text())
    label = next(iter(tables["spec-churn"]))
    tables["spec-churn"][label] = "0" * 64
    golden.write_text(json.dumps(tables))

    proc = run_bench("--smoke", "--workload", "spec-churn", bench=bench)
    assert proc.returncode != 0
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] > 0
    assert "digest mismatch" in proc.stderr


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    bench = _copy_bench(tmp_path)
    proc = run_bench("--workload", "spec-churn", bench=bench, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result_file(path: Path, started: float, seed: int, wall_s: float) -> Path:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in DECLARED["end_to_end"]}
    metrics["wall_s"]["value"] = wall_s
    record = {"started": started, "seed": seed, "seconds": 20.0, "trace": False, "smoke": False,
              "workloads": {"spec-churn": {"metrics": metrics}}}
    path.write_text(json.dumps(record))
    return path


def _pairs(tmp_path: Path, parent_wall: list[float], change_wall: list[float]) -> list[str]:
    args: list[str] = ["--parent"]
    for i, wall in enumerate(parent_wall):
        args.append(str(_result_file(tmp_path / f"p{i}.json", 2 * i + i % 2, i, wall)))
    args.append("--change")
    for i, wall in enumerate(change_wall):
        args.append(str(_result_file(tmp_path / f"c{i}.json", 2 * i + 1 - i % 2, i, wall)))
    return args


def test_compare_flags_regressions_and_unresolved_spreads(tmp_path, capsys):
    steady = [1.0 + 0.001 * i for i in range(10)]
    assert compare.main(_pairs(tmp_path, steady, [w * 1.5 for w in steady])) == 1
    assert "regressed" in capsys.readouterr().out

    assert compare.main(_pairs(tmp_path, steady, [w * 0.8 for w in steady])) == 0
    assert "improved" in capsys.readouterr().out

    noisy = [1.0, 2.0] * 5
    assert compare.main(_pairs(tmp_path, noisy, noisy[::-1])) == 0
    assert "unresolved" in capsys.readouterr().out

    assert compare.main(_pairs(tmp_path, steady[:5], steady[:5])) == 2
