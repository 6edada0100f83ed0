"""The observability subsystem: tracer ring buffer, metrics, schema,
exporters, summaries, and the end-to-end record path.

The load-bearing guarantees:

- disabled tracing is a no-op (hook sites pay one attribute check and
  emit nothing; these tests pin the semantics, and the host-time cost
  shows up in ``bench/`` as ``spec-churn`` ``wall_s``);
- the ring buffer bounds memory: overflow overwrites oldest, counts
  dropped, and keeps the survivors in order;
- a recorded simulation trace validates against the event schema and
  round-trips through the JSONL exporter to equal events;
- the metrics fold survives the campaign cache's JSON round-trip.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import RevokerKind
from repro.core.experiment import run_experiment
from repro.errors import SimulationError
from repro.kernel.revoker.base import PhaseSample
from repro.machine.scheduler import StwRecord
from repro.obs import (
    EVENT_SCHEMA,
    MetricsRegistry,
    TraceEvent,
    TraceFormatError,
    TraceSchemaError,
    TraceSummary,
    diff_summaries,
    read_jsonl,
    to_chrome_trace,
    tracing,
    validate_event,
    validate_events,
    write_jsonl,
)
from repro.obs.metrics import Histogram
from repro.obs.tracer import TRACER, Tracer
from repro.workloads.pgbench import PgBenchWorkload


# --- Tracer core ------------------------------------------------------------


def test_tracer_disabled_is_noop():
    t = Tracer()
    assert not t.enabled
    t.emit("epoch.open", ts=5, epoch=1)
    assert len(t) == 0
    assert t.emitted == 0
    assert t.events() == []


def test_module_tracer_disabled_by_default():
    # Hook sites bind this singleton at import; outside `tracing()` it
    # must be off or every test in the suite would start recording.
    assert not TRACER.enabled


def test_tracer_records_in_order():
    t = Tracer()
    t.start(capacity=16)
    for i in range(5):
        t.emit("epoch.open", ts=i, epoch=i)
    t.stop()
    assert [e.ts for e in t.events()] == [0, 1, 2, 3, 4]
    assert t.dropped == 0
    assert not t.enabled
    # Stopping keeps the buffer readable.
    assert len(t.events()) == 5


def test_ring_overflow_overwrites_oldest():
    t = Tracer()
    t.start(capacity=4)
    for i in range(10):
        t.emit("epoch.open", ts=i, epoch=i)
    events = t.events()
    assert len(events) == 4
    assert [e.ts for e in events] == [6, 7, 8, 9]
    assert t.emitted == 10
    assert t.dropped == 6


def test_ring_capacity_one():
    t = Tracer()
    t.start(capacity=1)
    for i in range(3):
        t.emit("epoch.open", ts=i, epoch=i)
    assert [e.ts for e in t.events()] == [2]
    assert t.dropped == 2


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer().start(capacity=0)


def test_tracer_clock_default_and_explicit_ts():
    t = Tracer()
    t.start(capacity=8, clock=lambda: 42)
    t.emit("epoch.open", epoch=1)
    t.emit("epoch.open", ts=7, epoch=2)
    assert [e.ts for e in t.events()] == [42, 7]


def test_tracer_start_resets_previous_recording():
    t = Tracer()
    t.start(capacity=4)
    t.emit("epoch.open", ts=1, epoch=1)
    t.start(capacity=4)
    assert t.events() == []
    assert t.emitted == 0
    assert t.dropped == 0


def test_tracing_context_manager_restores_disabled():
    with tracing(capacity=8) as t:
        assert t is TRACER
        assert TRACER.enabled
        TRACER.emit("epoch.open", ts=0, epoch=1)
    assert not TRACER.enabled
    assert len(TRACER.events()) == 1


def test_tracer_counts_events_in_metrics():
    with tracing(capacity=8):
        TRACER.emit("epoch.open", ts=0, epoch=1)
        TRACER.emit("epoch.open", ts=1, epoch=2)
        snapshot = TRACER.metrics.to_dict()
    assert snapshot["counters"]["events/epoch.open"] == 2


# --- Metrics ----------------------------------------------------------------


def test_histogram_buckets_are_powers_of_two():
    h = Histogram()
    for v in (0, 1, 2, 3, 4, 1000):
        h.observe(v)
    d = h.to_dict()
    # k = bit_length: 0 -> bucket 0, 1 -> 1, 2/3 -> 2, 4 -> 3, 1000 -> 10.
    assert d["buckets"] == {"0": 1, "1": 1, "2": 2, "3": 1, "10": 1}
    assert d["count"] == 6
    assert d["min"] == 0
    assert d["max"] == 1000
    assert d["mean"] == pytest.approx(1010 / 6)


def test_histogram_quantile_tails_are_exact():
    h = Histogram()
    for v in (3, 17, 100, 900):
        h.observe(v)
    assert h.quantile(0.0) == 3  # clamped to exact min
    assert h.quantile(1.0) == 900  # clamped to exact max


def test_histogram_quantile_within_bucket_factor():
    h = Histogram()
    values = [10, 20, 40, 80, 160, 320, 640]
    for v in values:
        h.observe(v)
    median = values[len(values) // 2]
    estimate = h.quantile(0.5)
    # Power-of-two buckets promise the midpoint is within 2x.
    assert median / 2 <= estimate <= median * 2


def test_histogram_quantile_single_value_is_exact():
    h = Histogram()
    h.observe(42)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 42  # min/max clamp collapses the bucket


def test_histogram_quantile_rejects_bad_input():
    from repro.errors import StatsError

    with pytest.raises(StatsError, match="empty"):
        Histogram().quantile(0.5)
    h = Histogram()
    h.observe(1)
    for q in (-0.1, 1.1):
        with pytest.raises(StatsError, match="quantile"):
            h.quantile(q)


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram().observe(-1)


def test_empty_histogram_serializes_finite():
    d = Histogram().to_dict()
    # min/max are null, NOT 0.0 — a restored empty histogram must stay
    # indistinguishable from a fresh one (regression: to_dict used to
    # rewrite the empty-state infinities to 0.0).
    assert d == {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "mean": 0.0, "buckets": {}}
    # Must survive strict JSON (no Infinity literals).
    json.loads(json.dumps(d, allow_nan=False))


def test_histogram_quantile_interpolates_within_bucket():
    # Regression: every interior quantile landing in one power-of-two
    # bucket used to collapse to that bucket's midpoint, so serve stats
    # reported service_p50_us == service_p99_us for tight distributions.
    h = Histogram()
    for v in range(520, 1020, 5):  # 100 values, all in bucket [512, 1024)
        h.observe(v)
    p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
    assert p50 < p90 < p99
    # Estimates stay clamped inside the observed range.
    for p in (p50, p90, p99):
        assert h.min <= p <= h.max
    # Monotone in q across the full range.
    qs = [i / 20 for i in range(21)]
    estimates = [h.quantile(q) for q in qs]
    assert estimates == sorted(estimates)


def test_histogram_quantile_monotone_across_buckets():
    h = Histogram()
    for v in (1, 2, 4, 8, 700, 701, 702, 703):
        h.observe(v)
    qs = [i / 50 for i in range(51)]
    estimates = [h.quantile(q) for q in qs]
    assert estimates == sorted(estimates)
    assert estimates[0] == h.min and estimates[-1] == h.max


def test_empty_histogram_roundtrip_stays_empty():
    from repro.errors import StatsError

    # Regression: the old 0.0 min/max in to_dict meant a restored empty
    # histogram had min == 0.0, so a later observe(5) kept min at 0.
    restored = Histogram.from_dict(
        json.loads(json.dumps(Histogram().to_dict(), allow_nan=False)))
    with pytest.raises(StatsError, match="empty"):
        restored.quantile(0.5)
    restored.observe(5)
    assert restored.min == 5
    assert restored.max == 5


def test_histogram_roundtrip_preserves_quantiles():
    h = Histogram()
    for v in (3, 17, 100, 900, 900, 901):
        h.observe(v)
    restored = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert restored.quantile(q) == h.quantile(q)
    assert restored.to_dict() == h.to_dict()


def test_registry_from_dict_roundtrip():
    r = MetricsRegistry()
    r.counter("jobs").inc(7)
    r.histogram("lat").observe(33)
    r.histogram("empty")  # created but never observed
    restored = MetricsRegistry.from_dict(json.loads(json.dumps(r.to_dict())))
    assert restored.to_dict() == r.to_dict()
    restored.histogram("empty").observe(2)
    assert restored.histogram("empty").min == 2


def test_registry_create_on_first_use_and_roundtrip():
    r = MetricsRegistry()
    r.counter("a").inc()
    r.counter("a").inc(2)
    r.histogram("h").observe(5)
    assert len(r) == 2
    snapshot = r.to_dict()
    assert snapshot["counters"]["a"] == 3
    assert json.loads(json.dumps(snapshot)) == snapshot


# --- Schema -----------------------------------------------------------------


def test_schema_accepts_catalogued_event():
    validate_event("stw.end", 10, {"duration": 3, "extra": "fine"})


def test_schema_rejects_unknown_name():
    with pytest.raises(TraceSchemaError):
        validate_event("nope.event", 0, {})


def test_schema_rejects_missing_fields():
    with pytest.raises(TraceSchemaError):
        validate_event("revoker.phase", 0, {"epoch": 1})


def test_schema_rejects_bad_timestamps():
    for ts in (-1, 1.5, True, "0"):
        with pytest.raises(TraceSchemaError):
            validate_event("epoch.open", ts, {"epoch": 1})


def test_validate_events_counts():
    events = [TraceEvent("epoch.open", 0, {"epoch": 1}),
              TraceEvent("epoch.close", 5, {"epoch": 1})]
    assert validate_events(events) == 2


# --- Exporters --------------------------------------------------------------


def _sample_events() -> list[TraceEvent]:
    return [
        TraceEvent("epoch.open", 10, {"epoch": 1, "revoker": "reloaded"}),
        TraceEvent("revoker.phase", 30,
                   {"epoch": 1, "phase": "sweep", "kind": "concurrent",
                    "begin": 10, "end": 30}),
        TraceEvent("stw.end", 35, {"duration": 5}),
        TraceEvent("epoch.close", 40, {"epoch": 1}),
    ]


def test_jsonl_roundtrip_equality(tmp_path):
    path = tmp_path / "t.jsonl"
    events = _sample_events()
    assert write_jsonl(path, events, {"workload": "x"}) == len(events)
    meta, loaded = read_jsonl(path)
    assert loaded == events
    assert meta["workload"] == "x"
    assert meta["version"] == 1


def test_jsonl_rejects_empty_and_headerless(tmp_path):
    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    with pytest.raises(TraceFormatError):
        read_jsonl(empty)
    headerless = tmp_path / "h.jsonl"
    headerless.write_text('{"type": "event", "name": "x", "ts": 0}\n')
    with pytest.raises(TraceFormatError):
        read_jsonl(headerless)


def test_jsonl_rejects_wrong_version(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text('{"type": "meta", "version": 99}\n')
    with pytest.raises(TraceFormatError):
        read_jsonl(path)


def test_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "b.jsonl"
    path.write_text('{"type": "meta", "version": 1}\nnot json\n')
    with pytest.raises(TraceFormatError):
        read_jsonl(path)


def test_chrome_export_shapes():
    doc = to_chrome_trace(_sample_events(), {"workload": "x"})
    phases = [r for r in doc["traceEvents"] if r["ph"] == "X"]
    instants = [r for r in doc["traceEvents"] if r["ph"] == "i"]
    assert len(phases) == 1
    assert phases[0]["name"] == "sweep"
    assert phases[0]["ts"] == 10
    assert phases[0]["dur"] == 20
    assert phases[0]["tid"] == "concurrent"
    assert len(instants) == 3
    assert doc["otherData"] == {"workload": "x"}
    json.dumps(doc)  # must be JSON-able


# --- Summary + diff ---------------------------------------------------------


def test_summary_per_epoch_accounting():
    events = [
        TraceEvent("epoch.open", 0, {"epoch": 1}),
        TraceEvent("revoker.phase", 10,
                   {"epoch": 1, "phase": "scan", "kind": "stw",
                    "begin": 0, "end": 10}),
        TraceEvent("revoker.phase", 40,
                   {"epoch": 1, "phase": "sweep", "kind": "concurrent",
                    "begin": 10, "end": 40}),
        TraceEvent("revoker.fault", 20, {"vpn": 7, "spurious": False, "cycles": 100}),
        TraceEvent("sweep.begin", 10, {"transactions": 1000}),
        TraceEvent("sweep.end", 40, {"transactions": 1600}),
        TraceEvent("stw.end", 10, {"duration": 10}),
        TraceEvent("epoch.close", 41, {"epoch": 1}),
        TraceEvent("quarantine.fill", 50, {"bytes": 64, "total": 64}),
        TraceEvent("tlb.shootdown", 55, {"vpn": 3, "cores": 4}),
    ]
    s = TraceSummary.from_events(events)
    assert len(s.epochs) == 1
    e = s.epochs[0]
    assert e.epoch == 1
    assert e.stw_cycles == 10
    assert e.concurrent_cycles == 30
    assert e.fault_count == 1
    assert e.fault_cycles == 100
    assert e.sweep_bus_transactions == 600
    assert s.stw_pauses == [10]
    assert s.quarantine_filled_bytes == 64
    assert s.tlb_shootdowns == 1
    assert s.total_stw_cycles == 10


def test_summary_tolerates_truncated_trace():
    # A ring-truncated trace may open with orphan events: they land in a
    # synthetic epoch-0 row instead of being dropped.
    events = [
        TraceEvent("revoker.fault", 5, {"vpn": 1, "spurious": True, "cycles": 9}),
        TraceEvent("epoch.open", 10, {"epoch": 3}),
        TraceEvent("epoch.close", 20, {"epoch": 3}),
    ]
    s = TraceSummary.from_events(events)
    assert [e.epoch for e in s.epochs] == [0, 3]
    assert s.epochs[0].spurious_faults == 1


def test_diff_summaries_rows():
    a = TraceSummary.from_events([
        TraceEvent("epoch.open", 0, {"epoch": 1}),
        TraceEvent("stw.end", 10, {"duration": 100}),
    ])
    b = TraceSummary.from_events([
        TraceEvent("epoch.open", 0, {"epoch": 1}),
        TraceEvent("stw.end", 10, {"duration": 50}),
    ])
    rows = diff_summaries(a, b)
    by_metric = {row[0]: row for row in rows}
    assert by_metric["max stw pause"][1:] == ["100", "50", "-50.0%"]
    assert by_metric["epochs"][3] == "+0.0%"


# --- Phase accounting guards (satellite) ------------------------------------


def test_phase_sample_rejects_negative_duration():
    with pytest.raises(SimulationError):
        PhaseSample(epoch=1, name="sweep", kind="concurrent", begin=10, end=9)


def test_stw_record_rejects_negative_duration():
    with pytest.raises(SimulationError):
        StwRecord(begin=10, end=9)


# --- End-to-end: recorded simulation traces ---------------------------------


def _record(kind: RevokerKind) -> tuple[list[TraceEvent], int]:
    with tracing() as t:
        run_experiment(PgBenchWorkload(transactions=40), kind)
        return t.events(), t.dropped


def test_recorded_reloaded_trace_validates_and_roundtrips(tmp_path):
    events, dropped = _record(RevokerKind.RELOADED)
    assert dropped == 0
    assert validate_events(events) == len(events) > 0
    names = {e.name for e in events}
    # The reloaded strategy's signature events must all be present.
    assert {"epoch.open", "epoch.close", "revoker.phase", "stw.begin",
            "stw.end", "sweep.begin", "sweep.end", "core.clg_flip",
            "quarantine.fill", "quarantine.seal", "quarantine.drain",
            "vm.mmap", "shadow.paint"} <= names
    path = tmp_path / "run.jsonl"
    write_jsonl(path, events, {"revoker": "reloaded"})
    _, loaded = read_jsonl(path)
    assert loaded == events
    summary = TraceSummary.from_events(loaded)
    assert summary.epochs
    assert summary.total_stw_cycles > 0


def test_recorded_cornucopia_trace_has_shootdowns():
    events, _ = _record(RevokerKind.CORNUCOPIA)
    names = {e.name for e in events}
    assert "tlb.shootdown" in names
    # Cornucopia has no load barrier: no foreground fault events.
    assert not any(
        e.name == "revoker.fault" and not e.args.get("spurious")
        for e in events
    )


def test_tracing_does_not_change_results():
    base = run_experiment(PgBenchWorkload(transactions=40), RevokerKind.RELOADED)
    with tracing():
        traced = run_experiment(
            PgBenchWorkload(transactions=40), RevokerKind.RELOADED
        )
    assert traced.wall_cycles == base.wall_cycles
    assert traced.stw_pauses == base.stw_pauses
    assert traced.revocations == base.revocations
    # The only allowed difference: the traced run carries the fold.
    assert base.metrics == {}
    assert traced.metrics["counters"]["epochs/faults"] >= 0


def test_campaign_trace_artifact(tmp_path, monkeypatch):
    from repro.runner.campaign import Job, WorkloadSpec, execute_job, job_trace_slug

    job = Job(
        workload=WorkloadSpec("pgbench", {"transactions": 40}),
        revoker=RevokerKind.RELOADED,
    )
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    result = execute_job(job)
    assert not TRACER.enabled  # tracer is released after the job
    artifact = tmp_path / f"{job_trace_slug(job)}.jsonl"
    assert artifact.exists()
    meta, events = read_jsonl(artifact)
    assert validate_events(events) > 0
    assert meta["revoker"] == "reloaded"
    assert meta["wall_cycles"] == result.wall_cycles


def test_campaign_trace_fingerprint_differs(monkeypatch):
    from repro.runner.cache import job_fingerprint
    from repro.runner.campaign import Job, WorkloadSpec

    job = Job(
        workload=WorkloadSpec("pgbench", {"transactions": 40}),
        revoker=RevokerKind.RELOADED,
    )
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    plain = job_fingerprint(job, code_version="x")
    monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/anywhere")
    traced = job_fingerprint(job, code_version="x")
    assert plain != traced


def test_metrics_fold_survives_serializer_roundtrip():
    from repro.runner.serialize import dumps_result, loads_result

    with tracing():
        result = run_experiment(
            PgBenchWorkload(transactions=40), RevokerKind.RELOADED
        )
    assert result.metrics
    assert loads_result(dumps_result(result)) == result
