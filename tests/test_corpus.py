"""The golden ``RunResult`` corpus on every execution path.

``perf/corpus.json`` pins the sha256 of each corpus job's serialized
RunResult (:mod:`repro.perf.corpus`). Every path that can produce a
result must reproduce those digests exactly: in-process (all entries,
traced ones included), the local pool, one serve daemon, the dist
coordinator over two daemons, warm-start, snapshot-resume, and two
references for the windowed sweep engine: the scalar window scan and
cache loop in place of the vector ones, and windows forced to one page.
Both patches reach foreground and background sweeps alike. A path runs
a subset of the matrix in which every family it can run and every
revoker appear at least once (:func:`~repro.perf.corpus.cover`); only
churn workloads snapshot, so warm-start and snapshot-resume run the
SPEC families.

The drills show the gate bites: one cycle added to
``sweep_page_overhead``, and a corpus entry changed, missing or new,
each make ``repro bench`` exit 1; ``--record`` over a corpus recorded
at another commit refuses without ``--force``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import RevokerKind
from repro.core.experiment import ALL_KINDS
from repro.core.simulation import Simulation
from repro.dist import DistributedExecutor, parse_nodes
from repro.kernel.revoker.base import Revoker
from repro.machine.cache import Cache
from repro.machine.costs import CostModel
from repro.perf import corpus
from repro.runner.campaign import build_config, execute_job
from repro.runner.pool import run_jobs
from repro.runner.progress import CampaignProgress
from repro.serve.client import ServeClient
from repro.snapshot import SnapshotPlan, SnapshotSession, restore_simulation
from tests.test_dist import _start_daemon, _stop_daemon

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = corpus.load(ROOT / corpus.CORPUS_PATH)
SPEC = [f for f in corpus.FAMILIES if f.kind == "spec"]
REVOKING = [k for k in ALL_KINDS if k is not RevokerKind.NONE]


def _check(jobs, results, traced=False):
    got = {corpus.label(j, traced): corpus.digest(r) for j, r in zip(jobs, results)}
    assert got == {name: EXPECTED.get(name) for name in got}


@pytest.fixture(scope="module")
def in_process():
    """Every corpus entry, simulated once in this process."""
    return corpus.run()


def test_cover_spans_every_family_and_revoker():
    jobs = corpus.cover()
    for family in corpus.FAMILIES:
        assert any(j.workload == family.with_params(seed=1) for j in jobs)
    assert {j.revoker for j in jobs} == set(ALL_KINDS)
    assert all(corpus.label(j) in EXPECTED for j in jobs)


# --- Paths -----------------------------------------------------------------


def test_in_process(in_process):
    jobs = corpus.matrix()
    assert len(jobs) == 40
    _check(jobs, [in_process[corpus.label(j)] for j in jobs])


def test_traced(in_process):
    jobs = corpus.cover()
    _check(jobs, [in_process[corpus.label(j, True)] for j in jobs], traced=True)
    assert all(in_process[corpus.label(j, True)].metrics for j in jobs)


def test_every_revoking_job_revokes(in_process):
    quiet = [
        corpus.label(j)
        for j in corpus.matrix()
        if j.revoker is not RevokerKind.NONE
        and in_process[corpus.label(j)].revocations < 1
    ]
    assert quiet == []


def test_pool():
    jobs = corpus.cover()
    _check(jobs, run_jobs(jobs, max_workers=2))


@pytest.fixture(scope="module")
def daemons(tmp_path_factory):
    """Two cache-less serve daemons on unix sockets, in threads."""
    tmp = tmp_path_factory.mktemp("corpus")
    running = [_start_daemon(tmp, name) for name in ("n0", "n1")]
    yield [sock for _, _, sock in running]
    for server, thread, _ in running:
        _stop_daemon(server, thread)


def test_serve(daemons):
    jobs = corpus.cover()
    with ServeClient(socket_path=daemons[0]) as client:
        results = [client.run_job_dict(j.to_dict()).result for j in jobs]
    _check(jobs, results)


def test_dist(daemons):
    jobs = corpus.cover()
    _check(jobs, DistributedExecutor(parse_nodes(",".join(daemons))).run(jobs))


def test_warm_start(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PREFIX_DIR", str(tmp_path))
    jobs = corpus.cover(SPEC, REVOKING)
    progress = CampaignProgress(len(jobs))
    _check(jobs, run_jobs(jobs, max_workers=1, progress=progress))
    assert progress.prefix_hits > 0


def test_snapshot_resume():
    jobs = corpus.cover(SPEC)
    straight, resumed = [], []
    for job in jobs:
        sim = Simulation(job.workload.build(), build_config(job))
        plan = SnapshotPlan(every_epochs=1, every_checks=64, max_captures=1)
        session = SnapshotSession(sim, plan)
        straight.append(sim.run(snapshots=session))
        assert session.captured, corpus.label(job)
        resumed.append(restore_simulation(session.captured[0])[0].resume())
    _check(jobs, straight)
    _check(jobs, resumed)


def test_reference_loops(monkeypatch):
    monkeypatch.setattr(Revoker, "_scan_window", Revoker._scan_window_scalar)
    monkeypatch.setattr(Cache, "_touch_span", Cache._touch_loop)
    jobs = corpus.cover()
    _check(jobs, [execute_job(j) for j in jobs])


def test_one_page_windows(monkeypatch):
    monkeypatch.setattr(Revoker, "_window_size", lambda self, budget, cheapest: 1)
    jobs = corpus.cover()
    _check(jobs, [execute_job(j) for j in jobs])


# --- Drills ----------------------------------------------------------------


def test_one_cycle_of_sweep_page_overhead_fails(monkeypatch, capsys):
    init = CostModel.__init__

    def bumped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.sweep_page_overhead += 1

    monkeypatch.setattr(CostModel, "__init__", bumped)
    monkeypatch.chdir(ROOT)
    assert main(["bench"]) == 1
    assert corpus.CHANGED in capsys.readouterr().out


@pytest.fixture()
def cwd_corpus(tmp_path, monkeypatch, in_process):
    """A copy of the committed corpus as the CWD's, and ``repro bench``
    fed the in-process results instead of re-simulating them."""
    path = tmp_path / corpus.CORPUS_PATH
    path.parent.mkdir(parents=True)
    shutil.copy(ROOT / corpus.CORPUS_PATH, path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(corpus, "run", lambda: dict(in_process))
    return path


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _row(out, name):
    (line,) = [line for line in out.splitlines() if name in line]
    return line


def test_committed_corpus_passes(cwd_corpus, capsys):
    assert main(["bench"]) == 0
    assert f"all {len(EXPECTED)} entries match" in capsys.readouterr().out


def test_changed_entry_fails(cwd_corpus, capsys):
    name = corpus.label(corpus.matrix()[0])
    _edit(cwd_corpus, lambda d: d["results"].update({name: "0" * 64}))
    assert main(["bench"]) == 1
    assert corpus.CHANGED in _row(capsys.readouterr().out, name)


def test_missing_entry_fails(cwd_corpus, capsys):
    _edit(cwd_corpus, lambda d: d["results"].update({"gone/none": "0" * 64}))
    assert main(["bench"]) == 1
    assert corpus.MISSING in _row(capsys.readouterr().out, "gone/none")


def test_new_entry_fails(cwd_corpus, capsys):
    name = corpus.label(corpus.matrix()[-1])
    _edit(cwd_corpus, lambda d: d["results"].pop(name))
    assert main(["bench"]) == 1
    assert corpus.NEW in _row(capsys.readouterr().out, name)


def test_record_over_another_commit_needs_force(cwd_corpus, monkeypatch, capsys):
    monkeypatch.setenv("GITHUB_SHA", "b" * 40)
    _edit(cwd_corpus, lambda d: d["env"].update({"git_sha": "a" * 40}))
    before = cwd_corpus.read_text()
    assert main(["bench", "--record"]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert cwd_corpus.read_text() == before
    assert main(["bench", "--record", "--force"]) == 0
    assert corpus.load(cwd_corpus) == EXPECTED
    assert json.loads(cwd_corpus.read_text())["env"]["git_sha"] == "b" * 40
