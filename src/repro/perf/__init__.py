"""Simulated-behaviour gate and report envelope.

- :mod:`repro.perf.corpus` — the golden ``RunResult`` corpus
  (``perf/corpus.json``) that ``python -m repro bench`` and tier-1 check
  on every execution path (docs/BENCHMARKING.md);
- :mod:`repro.perf.report` — the schema-v1 :class:`PerfReport` envelope
  ``repro serve bench`` writes, and :func:`check_overwrite`, the guard
  against overwriting a record made at another commit.

Host time is measured by ``bench/`` (``BENCHMARK.json``), not here.
"""
