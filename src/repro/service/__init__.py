"""The projection service: resident static analysis over a socket.

The paper's pipeline is two-phase — static (DTD + queries → projector,
once per workload) and per-document (prune).  This package makes the
static phase *resident*: a long-running server holds the shared projector
cache, parsed grammars, and a persistent worker pool with compiled prune
tables pinned, so clients pay only the per-document cost per request.

Server side::

    from repro.service import ProjectionServer, ServiceConfig
    ProjectionServer(ServiceConfig(port=8410, jobs=4)).run()

(or ``repro-xml serve --port 8410 --jobs 4``).  Client side::

    from repro.service import ServiceClient
    with ServiceClient("127.0.0.1", 8410) as client:
        outcome = client.prune(xml_text, dtd=dtd_text, root="book",
                               queries=["/book/title"])

Tests and notebooks can run both halves in one process via
:func:`serve_background`.
"""

from repro import _lazy

_EXPORTS = {
    "DEFAULT_MAX_FRAME_BYTES": "repro.service.protocol",
    "BackgroundServer": "repro.service.server",
    "ProjectionServer": "repro.service.server",
    "ProtocolError": "repro.errors",
    "RemoteBatchOutcome": "repro.service.client",
    "RemoteError": "repro.errors",
    "RemoteExtractOutcome": "repro.service.client",
    "RemoteOutcome": "repro.service.client",
    "ResidentPool": "repro.pool",
    "ServiceClient": "repro.service.client",
    "ServiceConfig": "repro.service.config",
    "ServiceError": "repro.errors",
    "ServiceOverloaded": "repro.errors",
    "ServiceUnavailable": "repro.errors",
    "WorkerFailure": "repro.service.server",
    "serve_background": "repro.service.server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.surface(__name__, _EXPORTS)
