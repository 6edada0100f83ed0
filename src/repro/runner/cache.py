"""Content-addressed on-disk result cache.

A job's **fingerprint** is a SHA-256 over the canonical JSON of
everything that determines its :class:`RunResult`:

- the workload spec (builder kind + every parameter — the harness's
  scale/transaction/duration env knobs land here);
- the revocation strategy and the declarative config overrides;
- the serialized-result ``FORMAT_VERSION``;
- a **code fingerprint**: a digest of every simulation-relevant source
  file of the installed ``repro`` package (core, machine, kernel, alloc,
  workloads, obs, extensions — everything except the runner itself and
  the tooling layers: analysis, serve, perf, check, the CLI). Touch the
  simulator and every cached result silently invalidates; touch only
  tooling and the cache stays warm.

Entries are one JSON file each under ``<root>/objects/<aa>/<hash>.json``
(first byte of the fingerprint as a fan-out directory). Writes go
through a same-directory temp file and ``os.replace`` so concurrent
campaign processes can share one cache without torn reads.

The default root is ``$REPRO_CACHE_DIR``, else
``~/.cache/repro/results``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

import repro
from repro.core.metrics import RunResult
from repro.runner.campaign import Job
from repro.runner.serialize import (
    FORMAT_VERSION,
    SerializationError,
    canonical_json,
    result_from_dict,
    result_to_dict,
)
from repro.settings import Settings

#: Package sub-trees whose source does not influence simulation results:
#: orchestration (runner), presentation (analysis, cli), the serving
#: daemon, the benchmark harness, and the validation suites. ``obs/``
#: stays *in* — the tracer and metric observers feed ``RunResult``.
_NON_SIMULATION_PARTS = (
    "runner",
    "analysis",
    "serve",
    "perf",
    "check",
    "dist",
    "cli",
    "api.py",
    "settings.py",
    "__main__.py",
)

_code_fingerprint_cache: str | None = None


def _simulation_sources(root: Path) -> Iterable[Path]:
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not any(
            rel == part or rel.startswith(part + "/")
            for part in _NON_SIMULATION_PARTS
        ):
            yield path


def code_fingerprint() -> str:
    """Digest of the simulation-relevant ``repro`` sources (cached per
    process; the package does not change under a running campaign)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in _simulation_sources(root):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint_cache = digest.hexdigest()
    return _code_fingerprint_cache


def job_fingerprint(job: Job, code_version: str | None = None) -> str:
    """The content address of one job's result."""
    material = {
        "format": FORMAT_VERSION,
        "code": code_version if code_version is not None else code_fingerprint(),
        "job": job.to_dict(),
    }
    if Settings.from_env().trace_dir is not None:
        # Traced runs carry the observability metrics fold in their
        # RunResult; keep them from colliding with untraced results.
        material["trace"] = True
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()


def default_cache_dir() -> Path:
    env = Settings.from_env().cache_dir
    if env is not None:
        return env
    return Path.home() / ".cache" / "repro" / "results"


class ResultCache:
    """Content-addressed store of serialized :class:`RunResult`\\ s."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path_of(self, fingerprint: str) -> Path:
        return self.root / "objects" / fingerprint[:2] / f"{fingerprint}.json"

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def get_envelope(self, fingerprint: str) -> dict[str, Any] | None:
        """The cached serialized envelope, or None on miss.

        The serving layer answers cache hits straight from this — the
        envelope is already the wire representation, so no
        decode/re-encode round-trip through :class:`RunResult` is paid.
        Corrupt entries (torn writes from dead processes, stale schema)
        count as misses and are removed.
        """
        path = self._path_of(fingerprint)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict):
                raise SerializationError("envelope is not a JSON object")
            if envelope.get("fingerprint") != fingerprint:
                raise SerializationError("fingerprint mismatch")
            if envelope.get("format") != FORMAT_VERSION:
                raise SerializationError("stale format version")
        except (SerializationError, ValueError):
            self._discard(path)
            return None
        return envelope

    def get(self, fingerprint: str) -> RunResult | None:
        """The cached result, or None on miss (see :meth:`get_envelope`)."""
        envelope = self.get_envelope(fingerprint)
        if envelope is None:
            return None
        try:
            return result_from_dict(envelope)
        except SerializationError:
            self._discard(self._path_of(fingerprint))
            return None

    def put_envelope(
        self,
        fingerprint: str,
        envelope: Mapping[str, Any],
        job: Job | None = None,
    ) -> Path:
        """Atomically persist an already-serialized result envelope (what
        pool and serve workers ship across process boundaries) without a
        decode/encode round-trip."""
        if envelope.get("format") != FORMAT_VERSION:
            raise SerializationError(
                f"envelope format {envelope.get('format')!r} != "
                f"supported {FORMAT_VERSION}"
            )
        path = self._path_of(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = dict(envelope)
        envelope["fingerprint"] = fingerprint
        if job is not None:
            envelope["job"] = job.to_dict()
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(canonical_json(envelope))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def put(self, fingerprint: str, result: RunResult, job: Job | None = None) -> Path:
        """Atomically persist a result under its fingerprint."""
        return self.put_envelope(fingerprint, result_to_dict(result), job=job)

    def __contains__(self, fingerprint: str) -> bool:
        return self._path_of(fingerprint).exists()

    def entries(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))
