"""Service configuration: one frozen bundle of server knobs.

Defaults are sized for a small trusted deployment; the CLI (``repro-xml
serve``) exposes the load-bearing ones as flags.  ``limits`` is the
*server-side* per-request resource profile — a client may ask for its own
:class:`~repro.limits.Limits`, but the effective bounds are the
intersection (the server never relaxes its own profile for a client).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.limits import Limits, resolve_limits
from repro.service.protocol import DEFAULT_MAX_FRAME_BYTES

__all__ = ["ServiceConfig"]


@dataclass(slots=True, frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.server.ProjectionServer`.

    * ``host`` / ``port`` — bind address; port ``0`` picks a free port
      (read it back from ``server.port`` once started).
    * ``jobs`` — resident worker-pool width (``None``/``0`` = every CPU
      this process may run on).
    * ``queue_limit`` — admission bound: maximum requests admitted
      server-wide (queued + running).  Request number ``queue_limit + 1``
      gets a structured 429-style refusal, never a hang.
    * ``per_connection`` — in-flight cap per connection (pipelining depth).
    * ``limits`` — server-side per-request resource profile (name,
      :class:`Limits`, or ``None`` for the default profile).
    * ``max_frame_bytes`` — protocol frame bound, both directions.
    * ``tracing`` — ship worker-side obs records back to the server
      tracer (matches ``prune_many``'s behaviour; costs one MemorySink
      per worker).
    * ``ledger`` — path of an attestation ledger (:mod:`repro.ledger`);
      when set, every prune/extract request is recorded and identical
      re-requests are served from the content-addressed result store
      (``result["ledger"]`` says which happened).
    """

    host: str = "127.0.0.1"
    port: int = 0
    jobs: int | None = 2
    queue_limit: int = 64
    per_connection: int = 8
    limits: "Limits | str | None" = None
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    tracing: bool = False
    ledger: str | None = None

    def __post_init__(self) -> None:
        if self.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.per_connection < 1:
            raise ValueError(
                f"per_connection must be positive, got {self.per_connection}"
            )
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be at least 1 KiB")

    def resolved_limits(self) -> Limits:
        return resolve_limits(self.limits)
