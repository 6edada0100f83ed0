"""``repro.settings`` — the one place the environment is read.

Every ``REPRO_*`` knob the package honors is declared here, parsed here,
and validated here. The rest of the codebase never touches
``os.environ`` for configuration (a lint test pins that): every reader
calls :meth:`Settings.from_env` when it runs — once per batch or per
job, never per simulated event, never at construction time — so tests
can flip a knob per-case with ``monkeypatch.setenv`` and job processes
see what their parent exported before forking them.

:class:`Settings` is the 10 knobs as one frozen, typed value:

- :meth:`Settings.from_env` is the single parse point (validation and
  typed defaults included) — call it with no argument for the process
  environment, or with any mapping (a campaign spec's ``env`` block, a
  remote node's shipped config);
- :meth:`Settings.to_env` is the inverse: the minimal ``{VAR: value}``
  dict that reproduces the settings, suitable for shipping to a remote
  ``repro.serve`` node or exporting before a fork
  (``from_env(to_env(s)) == s`` is pinned by a hypothesis test);
- :meth:`Settings.apply` writes that dict into ``os.environ`` (and
  *clears* managed vars the settings leave at default), handing a whole
  configuration to a process at once (each serve job process applies
  its daemon's settings);
- :func:`set_env` writes one knob (the CLI's pre-fork plumbing).

Precedence everywhere is **CLI flag > environment > default**: the CLI
passes explicit values down as arguments; anything left ``None`` falls
back to :meth:`Settings.from_env` (environment), which falls back to
the typed default. Precedence orders well-formed values only: each read
validates every knob, so a malformed ``REPRO_*`` variable fails the
first read anywhere, even where a flag overrides it.

The knobs:

======================== =============================================
``REPRO_JOBS``           campaign worker processes (0 = all CPUs; 1)
``REPRO_JOB_TIMEOUT``    seconds per pooled job (none)
``REPRO_CACHE_DIR``      result cache root (~/.cache/repro/results)
``REPRO_TRACE_DIR``      per-job observability trace artifacts (off)
``REPRO_PREFIX_DIR``     warm-start prefix store (off)
``REPRO_PROGRESS``       stream per-job progress lines (off)
``REPRO_SERVE_WORKERS``  serve daemon concurrent job processes (2)
``REPRO_SERVE_QUEUE``    serve admission bound (64)
``REPRO_SERVE_JOB_TIMEOUT`` seconds per serve job process (none)
``REPRO_BENCH_FORCE``    overwrite benchmark reports cross-commit (off)
======================== =============================================
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigError

# --- Field parsers ----------------------------------------------------------
#
# Each knob gets one parser from raw string to typed value; the error
# message always names the variable and the offending text, so a typo'd
# environment fails loudly at the first read, not deep in a run.


def _parse_int(var: str, raw: str, minimum: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{var}={raw!r} is not an integer") from None
    if value < minimum:
        raise ConfigError(f"{var} must be >= {minimum}, got {value}")
    return value


def _parse_timeout(var: str, raw: str) -> float | None:
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{var}={raw!r} is not a number") from None
    if value <= 0:
        raise ConfigError(f"{var} must be > 0 seconds, got {value}")
    return value


def _parse_path(var: str, raw: str) -> Path | None:
    return Path(raw) if raw else None


def _parse_flag(var: str, raw: str) -> bool:
    return raw not in ("0", "")


@dataclass(frozen=True)
class _Field:
    """One knob: its env var, parser, default, and serializer.

    ``empty_unsets`` keeps the historical per-knob semantics of an
    *empty* value: most knobs treat ``VAR=""`` the same as unset, but
    the always-defaulted integer knobs (``REPRO_JOBS``,
    ``REPRO_SERVE_WORKERS``, ``REPRO_SERVE_QUEUE``) have always rejected
    it loudly as a parse error.
    """

    var: str
    parse: Callable[[str, str], Any]
    default: Any
    to_str: Callable[[Any], str]
    empty_unsets: bool = True


def _str_plain(value: Any) -> str:
    return str(value)


def _str_flag(value: Any) -> str:
    return "1" if value else "0"


#: Field name -> knob declaration. The authoritative knob catalog:
#: :meth:`Settings.from_env` and :meth:`Settings.to_env` are both
#: generated from it, so a new knob is one line here plus a field on
#: :class:`Settings`.
FIELDS: dict[str, _Field] = {
    "jobs": _Field(
        "REPRO_JOBS", lambda v, r: _parse_int(v, r, 0), 1, _str_plain,
        empty_unsets=False,
    ),
    "job_timeout_s": _Field("REPRO_JOB_TIMEOUT", _parse_timeout, None, _str_plain),
    "cache_dir": _Field("REPRO_CACHE_DIR", _parse_path, None, _str_plain),
    "trace_dir": _Field("REPRO_TRACE_DIR", _parse_path, None, _str_plain),
    "prefix_dir": _Field("REPRO_PREFIX_DIR", _parse_path, None, _str_plain),
    "progress": _Field("REPRO_PROGRESS", _parse_flag, False, _str_flag),
    "serve_workers": _Field(
        "REPRO_SERVE_WORKERS", lambda v, r: _parse_int(v, r, 1), 2, _str_plain,
        empty_unsets=False,
    ),
    "serve_queue": _Field(
        "REPRO_SERVE_QUEUE", lambda v, r: _parse_int(v, r, 1), 64, _str_plain,
        empty_unsets=False,
    ),
    "serve_job_timeout_s": _Field(
        "REPRO_SERVE_JOB_TIMEOUT", _parse_timeout, None, _str_plain
    ),
    "bench_force": _Field("REPRO_BENCH_FORCE", _parse_flag, False, _str_flag),
}

#: Every environment variable this module owns.
MANAGED_VARS: tuple[str, ...] = tuple(f.var for f in FIELDS.values())


def _read(field: str, environ: Mapping[str, str] | None = None) -> Any:
    env = os.environ if environ is None else environ
    decl = FIELDS[field]
    raw = env.get(decl.var)
    if raw is None or (raw == "" and decl.empty_unsets):
        return decl.default
    return decl.parse(decl.var, raw)


@dataclass(frozen=True)
class Settings:
    """Every ``REPRO_*`` knob as one frozen, typed, serializable value.

    ``jobs`` keeps the declared value (0 = all CPUs); resolve it with
    :meth:`max_workers` at the point of use so the value round-trips
    through :meth:`to_env` machine-independently.
    """

    jobs: int = 1
    job_timeout_s: float | None = None
    cache_dir: Path | None = None
    trace_dir: Path | None = None
    prefix_dir: Path | None = None
    progress: bool = False
    serve_workers: int = 2
    serve_queue: int = 64
    serve_job_timeout_s: float | None = None
    bench_force: bool = False

    def __post_init__(self) -> None:
        # The same validation whether a value arrives from the
        # environment or from code constructing Settings directly.
        if self.jobs < 0:
            raise ConfigError(f"REPRO_JOBS must be >= 0, got {self.jobs}")
        if self.serve_workers < 1:
            raise ConfigError(
                f"REPRO_SERVE_WORKERS must be >= 1, got {self.serve_workers}"
            )
        if self.serve_queue < 1:
            raise ConfigError(
                f"REPRO_SERVE_QUEUE must be >= 1, got {self.serve_queue}"
            )
        for var, value in (
            ("REPRO_JOB_TIMEOUT", self.job_timeout_s),
            ("REPRO_SERVE_JOB_TIMEOUT", self.serve_job_timeout_s),
        ):
            if value is not None and value <= 0:
                raise ConfigError(f"{var} must be > 0 seconds, got {value}")

    # --- Construction -----------------------------------------------------

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "Settings":
        """Parse one :class:`Settings` from ``environ`` (default: the
        process environment). The single parse point: every knob is
        validated, every absent knob gets its typed default."""
        return cls(**{name: _read(name, environ) for name in FIELDS})

    # --- Serialization ----------------------------------------------------

    def to_env(self) -> dict[str, str]:
        """The minimal environment dict reproducing these settings.

        Only non-default knobs appear, so the dict composes cleanly with
        an existing environment; ``Settings.from_env(s.to_env()) == s``.
        This is the shipping format for remote nodes: start a
        ``repro.serve`` daemon under this environment and it behaves as
        configured here.
        """
        env: dict[str, str] = {}
        for name, decl in FIELDS.items():
            value = getattr(self, name)
            if value != decl.default:
                env[decl.var] = decl.to_str(value)
        return env

    def apply(self) -> None:
        """Export these settings into ``os.environ``.

        Managed vars at their default are *removed*, so the resulting
        process environment means exactly this Settings value — how a
        serve daemon's job process takes on its daemon's configuration.
        """
        wanted = self.to_env()
        for var in MANAGED_VARS:
            if var in wanted:
                os.environ[var] = wanted[var]
            else:
                os.environ.pop(var, None)

    def replace(self, **updates: Any) -> "Settings":
        """A copy with ``updates`` applied (validation re-runs)."""
        return dataclasses.replace(self, **updates)

    # --- Derived ----------------------------------------------------------

    def max_workers(self) -> int:
        """``jobs`` resolved: 0 means every CPU."""
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


def set_env(field: str, value: Any) -> None:
    """Write one knob into ``os.environ`` (the CLI's pre-fork plumbing).

    ``None`` clears the variable. Values are serialized through the
    field's canonical form, so a later :meth:`Settings.from_env` read
    agrees exactly.
    """
    decl = FIELDS[field]
    if value is None:
        os.environ.pop(decl.var, None)
        return
    os.environ[decl.var] = decl.to_str(value)
