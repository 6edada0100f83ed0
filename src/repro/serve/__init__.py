"""``repro.serve`` — a long-running simulation service.

The serving layer turns the one-shot ``python -m repro run`` flow into a
daemon: jobs submitted over a Unix or TCP socket (newline-delimited
JSON) each run in a fresh process forked from the fully imported
daemon, requests are deduplicated against the content-addressed result
cache and against each other while in flight, and admission control
sheds load with structured ``overloaded`` rejections instead of
unbounded queueing. Live
``health``/``stats`` verbs expose the daemon's metrics registry.

Modules:

- :mod:`repro.serve.protocol` — wire format, verbs, error codes;
- :mod:`repro.serve.server`   — the asyncio daemon (dedup, backpressure,
  fork-per-job supervision, graceful drain);
- :mod:`repro.serve.client`   — blocking client library;
- :mod:`repro.serve.bench`    — closed/open-loop load generator.
"""

from repro.serve.client import (
    Overloaded,
    RequestFailed,
    RunResponse,
    ServeClient,
    ServeError,
    ServerUnavailable,
    ServeTimeout,
)
from repro.serve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    KNOWN_VERBS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.serve.server import ServeConfig, SimulationServer

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "KNOWN_VERBS",
    "PROTOCOL_VERSION",
    "Overloaded",
    "ProtocolError",
    "RequestFailed",
    "RunResponse",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeTimeout",
    "ServerUnavailable",
    "SimulationServer",
]
