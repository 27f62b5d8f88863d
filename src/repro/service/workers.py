"""The service's resident workers: the shared pool, kept for a lifetime.

Batch mode borrows the process's resident :class:`~repro.pool.
ResidentPool` (:func:`repro.pool.borrow`); the service keeps a pool of
its own alive for its whole lifetime, so the per-request cost is a queue
hop, not a pool spawn.  Pinning, the fingerprint handshake, the worker
task (with its :func:`repro.pool._execute_item` monkeypatch point), trace
shipping and respawns all live in :mod:`repro.pool`; this module adds
only the structured failure a pooled request raises.
"""

from __future__ import annotations

from repro.pool import PinKey, ResidentPool

__all__ = ["PinKey", "ResidentPool", "WorkerFailure"]


class WorkerFailure(Exception):
    """A worker-side failure travelling back as data: ``kind`` is the
    worker's exception class name (or ``worker-crash`` /
    ``fingerprint-mismatch``), ``message`` its text."""

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        super().__init__(message)
