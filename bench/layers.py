"""Host-time spans per simulator layer, recorded from outside the program.

:func:`install` wraps the public entry points of each layer listed in
:data:`ENTRY_POINTS`, patching the attribute callers look up: the class
attribute for methods, and every ``repro`` module's binding for
module-level functions (``from x import f`` copies the reference, so the
definition alone is not enough). Each wrapped call is one span: layer,
function, start, end and parent span. Thread-body generators (from
``Workload.thread_bodies``) and the mrs controller generator are wrapped
in forwarding generators, so each step of theirs is one span.

A layer's self time is its spans' inclusive time minus the time of their
child spans. Totals are aggregated in memory; a bounded sample of raw
spans is kept for a Chrome trace_event file (see :meth:`Recorder.write_chrome`).

Pool workers are forked, so they inherit the wrappers. The wrapper on
``repro.runner.pool.execute_job`` notices it runs in a new process,
starts that process's totals from zero, and writes them to the spans
directory when the job ends; :meth:`Recorder.merge` folds them into the
parent's totals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Span layer -> entry points, as ``(module, class or None, names)``.
#: ``None`` means module-level functions; ``"*"`` means every non-dunder
#: function of the class.
ENTRY_POINTS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "machine.scheduler": [
        ("repro.machine.scheduler", "Scheduler", ("run", "run_until_condition")),
    ],
    "machine.cpu": [
        ("repro.machine.cpu", "Core", ("load_cap", "store_cap", "load_data", "store_data")),
    ],
    "machine.cache": [
        ("repro.machine.cache", "Cache", ("access_range", "access_page", "access")),
    ],
    "machine.capability": [
        ("repro.machine.capability", "Capability", ("derive", "with_address", "check_dereference")),
    ],
    "machine.memory": [("repro.machine.memory", "TaggedMemory", ("*",))],
    "machine.pagetable": [
        ("repro.machine.pagetable", "TLB", ("lookup", "fill")),
        ("repro.machine.pagetable", "PageTable", ("get", "require")),
    ],
    "kernel.revoker": [
        ("repro.kernel.revoker.base", "Revoker", ("sweep_page", "scan_roots", "gen_only_visit")),
        ("repro.kernel.kernel", "Kernel", ("handle_lg_fault",)),
    ],
    "kernel.shadow": [
        ("repro.kernel.shadow", "RevocationBitmap", ("paint", "unpaint", "unpaint_many", "probe_bases")),
    ],
    "alloc": [
        ("repro.alloc.snmalloc", "SnMalloc", ("malloc", "free", "release")),
        ("repro.alloc.quarantine", "Quarantine", ("add", "seal", "releasable")),
    ],
    "runner.cache": [
        ("repro.runner.cache", "ResultCache", ("get", "put")),
        ("repro.runner.cache", None, ("job_fingerprint",)),
    ],
    "runner.serialize": [
        ("repro.runner.serialize", None, (
            "result_to_dict", "result_from_dict", "dumps_result", "loads_result",
        )),
    ],
    # prefix_store_dir is the warm-start check every job makes, so the
    # layer has calls on every workload, not only under warm start.
    "snapshot": [
        ("repro.snapshot.capture", None, ("capture_simulation",)),
        ("repro.snapshot.prefix", None, ("fork_simulation", "prefix_store_dir")),
        ("repro.snapshot.prefix", "PrefixStore", ("get", "put_if_absent")),
    ],
}

#: Every span layer, in report order. ``workloads`` and the controller
#: steps of ``alloc`` are generator steps; ``runner.pool`` is the
#: per-job ``execute_job`` wrapper; ``other`` is the benchmark's own root
#: span, whose self time is host time no layer covers.
LAYERS: tuple[str, ...] = (
    "machine.scheduler",
    "workloads",
    "machine.cpu",
    "machine.cache",
    "machine.capability",
    "machine.memory",
    "machine.pagetable",
    "kernel.revoker",
    "kernel.shadow",
    "alloc",
    "runner.cache",
    "runner.serialize",
    "runner.pool",
    "snapshot",
)

#: Raw spans kept for the Chrome trace: only spans at least this long,
#: so the sample shows the run's structure rather than its first
#: milliseconds.
SAMPLE_MIN_S = 50e-6
SAMPLE_LIMIT = 20_000

class Recorder:
    """Span totals for one process, plus a bounded sample of raw spans."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.pid = os.getpid()
        #: Open spans, innermost last: ``[child_s, span_id]``.
        self.stack: list[list] = []
        #: ``(layer, function)`` -> ``[calls, self_s, inclusive_s]``.
        self.totals: dict[tuple[str, str], list] = {}
        self.counters: dict[str, int] = {"cache_hits": 0, "cache_misses": 0}
        #: Inclusive time of spans that closed with no parent open.
        self.root_s = 0.0
        #: ``(pid, span_id, parent_id, layer, function, start, end)``.
        self.samples: list[tuple] = []
        self._ids = itertools.count(1)

    # --- Spans ----------------------------------------------------------

    def _close(self, key: tuple[str, str], totals: list, span: list, start: float, end: float) -> None:
        duration = end - start
        totals[0] += 1
        totals[1] += duration - span[0]
        totals[2] += duration
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_id = parent[1]
        else:
            self.root_s += duration
            parent_id = 0
        if duration >= SAMPLE_MIN_S and len(self.samples) < SAMPLE_LIMIT:
            self.samples.append((self.pid, span[1], parent_id, key[0], key[1], start, end))

    def _totals_of(self, key: tuple[str, str]) -> list:
        return self.totals.setdefault(key, [0, 0.0, 0.0])

    def timed(self, layer: str, function: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call is one span."""
        key = (layer, function)
        totals = self._totals_of(key)
        stack, ids, clock, close = self.stack, self._ids, time.perf_counter, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [0.0, next(ids)]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(key, totals, span, start, end)

        return wrapper

    def steps(self, layer: str, function: str, generator: Iterator) -> Iterator:
        """Forward ``generator`` (driven with ``next`` only, as the
        scheduler does), making each step one span."""
        key = (layer, function)
        totals = self._totals_of(key)
        stack, ids, clock, close = self.stack, self._ids, time.perf_counter, self._close
        while True:
            span = [0.0, next(ids)]
            stack.append(span)
            start = clock()
            try:
                item = next(generator)
            except StopIteration as stop:
                return stop.value
            finally:
                end = clock()
                stack.pop()
                close(key, totals, span, start, end)
            yield item

    # --- Worker processes -------------------------------------------------

    def reset(self) -> None:
        """Start this (forked) process's totals from zero. The wrappers
        hold references to these containers, so they are cleared in place."""
        self.pid = os.getpid()
        self.stack.clear()
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0]
        for name in self.counters:
            self.counters[name] = 0
        self.root_s = 0.0
        self.samples.clear()

    def flush(self) -> None:
        """Write this process's totals where the parent's :meth:`merge`
        finds them."""
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "totals": [[*key, *totals] for key, totals in self.totals.items() if totals[0]],
            "counters": self.counters,
            "root_s": self.root_s,
            "samples": self.samples,
        }
        fd, tmp = tempfile.mkstemp(dir=self.spans_dir, prefix=f"{self.pid}-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp, tmp[: -len(".tmp")] + ".json")

    def merge(self) -> int:
        """Fold every flushed worker record into these totals (and delete
        it); returns how many were merged."""
        paths = sorted(self.spans_dir.glob("*.json")) if self.spans_dir.is_dir() else []
        for path in paths:
            record = json.loads(path.read_text())
            for layer, function, calls, self_s, inclusive_s in record["totals"]:
                totals = self._totals_of((layer, function))
                totals[0] += calls
                totals[1] += self_s
                totals[2] += inclusive_s
            for name, value in record["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.root_s += record["root_s"]
            room = SAMPLE_LIMIT - len(self.samples)
            self.samples.extend(tuple(s) for s in record["samples"][:room])
            path.unlink()
        return len(paths)

    # --- Results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and ``inclusive_s`` summed over
        its functions (inclusive time double-counts recursion within a
        layer; self time never does)."""
        out: dict[str, dict[str, float]] = {}
        for (layer, _function), (calls, self_s, inclusive_s) in self.totals.items():
            entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
            entry["inclusive_s"] += inclusive_s
        return out

    def write_chrome(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the sampled spans as a Chrome trace_event document (the
        format ``repro.obs.export`` writes), timestamps in microseconds."""
        origin = min((s[5] for s in self.samples), default=0.0)
        events = [
            {
                "name": function,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": layer,
                "args": {"id": span_id, "parent": parent_id},
            }
            for pid, span_id, parent_id, layer, function, start, end in self.samples
        ]
        document = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
        Path(path).write_text(json.dumps(document))


# --- Patching -----------------------------------------------------------------


class Patches:
    """Attribute replacements, undone in reverse by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        own = vars(owner)
        self._saved.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _class_functions(cls: type, names: tuple[str, ...]) -> list[str]:
    if names != ("*",):
        return list(names)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("__") and (callable(value) or isinstance(value, staticmethod))
    ]


def _patch_function_everywhere(patches: Patches, original: Callable, wrapper: Callable) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapper)


#: Modules whose functions are patched or which bind patched functions by
#: name; imported before patching so no binding is made afterwards.
_PRELOAD = (
    "repro.core.simulation",
    "repro.runner",
    "repro.runner.pool",
    "repro.snapshot",
    "repro.snapshot.capture",
    "repro.snapshot.prefix",
    "repro.workloads.churn",
    "repro.workloads.pgbench",
    "repro.workloads.spec",
)


def install(recorder: Recorder) -> Patches:
    """Wrap every entry point; returns the patches to restore."""
    for module in _PRELOAD:
        importlib.import_module(module)
    patches = Patches()

    for layer, points in ENTRY_POINTS.items():
        for module_name, class_name, names in points:
            module = sys.modules[module_name]
            if class_name is None:
                for name in names:
                    original = getattr(module, name)
                    wrapper = recorder.timed(layer, name, original)
                    _patch_function_everywhere(patches, original, wrapper)
                continue
            cls = getattr(module, class_name)
            for name in _class_functions(cls, names):
                raw = vars(cls).get(name)
                label = f"{class_name}.{name}"
                if isinstance(raw, staticmethod):
                    patches.set(cls, name, staticmethod(recorder.timed(layer, label, raw.__func__)))
                    continue
                fn = getattr(cls, name)
                if layer == "machine.cache":
                    fn = _counting_cache_hits(recorder, fn)
                patches.set(cls, name, recorder.timed(layer, label, fn))

    _install_generators(recorder, patches)
    _install_pool_entry(recorder, patches)
    return patches


def _counting_cache_hits(recorder: Recorder, fn: Callable) -> Callable:
    """Count the hits and misses a cache call adds (the hit ratio)."""
    counters = recorder.counters

    @functools.wraps(fn)
    def counted(cache, *args, **kwargs):
        hits, misses = cache.hits, cache.misses
        try:
            return fn(cache, *args, **kwargs)
        finally:
            counters["cache_hits"] += cache.hits - hits
            counters["cache_misses"] += cache.misses - misses

    return counted


def _install_generators(recorder: Recorder, patches: Patches) -> None:
    from repro.alloc.mrs import MrsShim
    from repro.workloads.base import Workload

    thread_bodies = Workload.thread_bodies
    controller = MrsShim.controller

    def stepped(factory: Callable) -> Callable:
        return lambda ctx: recorder.steps("workloads", "thread_body.step", factory(ctx))

    @functools.wraps(thread_bodies)
    def traced_thread_bodies(self):
        return [(name, stepped(factory)) for name, factory in thread_bodies(self)]

    @functools.wraps(controller)
    def traced_controller(self, core, slot):
        return recorder.steps("alloc", "MrsShim.controller.step", controller(self, core, slot))

    patches.set(Workload, "thread_bodies", traced_thread_bodies)
    patches.set(MrsShim, "controller", traced_controller)


def _install_pool_entry(recorder: Recorder, patches: Patches) -> None:
    pool = sys.modules["repro.runner.pool"]
    timed = recorder.timed("runner.pool", "execute_job", pool.execute_job)

    @functools.wraps(pool.execute_job)
    def pool_entry(job):
        forked = os.getpid() != recorder.pid
        if forked:
            recorder.reset()
        try:
            return timed(job)
        finally:
            if forked:
                recorder.flush()

    patches.set(pool, "execute_job", pool_entry)
