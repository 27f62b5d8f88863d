"""Blocking client for the projection service.

:class:`ServiceClient` speaks the frame protocol over one TCP connection
and mirrors the :func:`repro.prune` facade: pass a document (markup or a
path), a grammar spec, and queries or a projector, get text/stats back.
Server-side refusals re-raise locally as their own classes
(:class:`~repro.errors.ServiceOverloaded`,
:class:`~repro.errors.ServiceUnavailable`) so callers can back off;
everything else surfaces as :class:`~repro.errors.RemoteError`.

Non-path document sources are read client-side and shipped as markup, so
the client works against a server on another machine; pass
``source_path=...`` instead to make the *server* open the file (same-host
deployments skip shipping the document over the socket).
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.api import PruneOptions
from repro.errors import ProtocolError, RemoteError, ServiceError
from repro.extract.api import ExtractOptions
from repro.extract.spec import ExtractSpec
from repro.extract.stats import ExtractStats
from repro.limits import Limits
from repro.projection.stats import PruneStats
from repro.run import is_markup
from repro.service.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    raise_remote,
    recv_frame,
    send_frame,
)

__all__ = [
    "RemoteBatchOutcome",
    "RemoteExtractOutcome",
    "RemoteOutcome",
    "ServiceClient",
]


@dataclass(slots=True)
class RemoteOutcome:
    """One remote prune's outcome: the service-side result, locally typed.

    ``ledger`` reports what a ledger-enabled server did with the request:
    ``"hit"`` (served from the content-addressed store), ``"recorded"``
    (executed, attestation appended), or ``None`` (no ledger / unhashable
    source)."""

    stats: PruneStats
    text: str | None = None
    output_path: str | None = None
    seconds: float = 0.0
    worker: int | None = None
    ledger: str | None = None


@dataclass(slots=True)
class RemoteExtractOutcome:
    """One remote extraction's outcome (``text`` is the encoded JSONL/CSV
    unless the server wrote to ``out_path``)."""

    stats: ExtractStats
    text: str | None = None
    output_path: str | None = None
    seconds: float = 0.0
    worker: int | None = None
    ledger: str | None = None


@dataclass(slots=True)
class RemoteBatchOutcome:
    """A ``prune_batch`` outcome: per-item results plus merged stats."""

    items: list["RemoteOutcome | ServiceError"]
    stats: PruneStats = field(default_factory=PruneStats)
    succeeded: int = 0
    seconds: float = 0.0


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.
    ProjectionServer`.  Safe for sequential use from one thread; open one
    client per thread for concurrency (the server multiplexes)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = 60.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    @classmethod
    def from_address(cls, address: str, **kwargs: Any) -> "ServiceClient":
        """Connect to a ``host:port`` string (the CLI's ``--server`` form)."""
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"expected HOST:PORT, got {address!r}")
        return cls(host or "127.0.0.1", int(port), **kwargs)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """One round trip: send ``op``, return the ``result`` object or
        raise the wire error as a local exception."""
        req_id = next(self._ids)
        send_frame(self._sock, {"id": req_id, "op": op, **fields})
        while True:
            response = recv_frame(self._sock, self.max_frame_bytes)
            if response is None:
                raise ProtocolError("server closed the connection mid request")
            if response.get("id") == req_id:
                break
            # A response to an id we never sent (or a broadcast error for
            # an unparseable frame) is a protocol breach on this socket.
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match request {req_id}"
            )
        if response.get("ok"):
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        raise_remote(response.get("error") or {})
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _grammar_spec(
        dtd: str | None,
        dtd_path: str | None,
        root: str | None,
        xmark: bool,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
    ) -> dict[str, Any]:
        if xmark:
            return {"xmark": True}
        if grammar is not None:
            # A grammar object (e.g. an InferredGrammar) ships as its wire
            # form so the server can pin it like any other grammar.
            from repro.dtd.grammar import Grammar

            if isinstance(grammar, Grammar):
                from repro.schema.wire import grammar_to_wire

                grammar = grammar_to_wire(grammar)
            return {"grammar": grammar}
        if xsd_path is not None:
            with open(xsd_path, "r", encoding="utf-8") as handle:
                xsd = handle.read()
        if xsd is not None:
            spec: dict[str, Any] = {"xsd": xsd}
            if root is not None:
                spec["root"] = root
            return spec
        if dtd_path is not None:
            with open(dtd_path, "r", encoding="utf-8") as handle:
                dtd = handle.read()
        if dtd is None or root is None:
            raise ValueError(
                "a grammar is required: pass dtd=/dtd_path= and root=, "
                "xsd=/xsd_path=, grammar=, or xmark=True"
            )
        return {"dtd": dtd, "root": root}

    @staticmethod
    def _source_field(source: str | None, source_path: str | None) -> Any:
        if (source is None) == (source_path is None):
            raise ValueError("pass exactly one of source= or source_path=")
        if source_path is not None:
            return {"path": source_path}
        assert source is not None
        if not is_markup(source):
            # A local path: read it here so the server need not share our
            # filesystem.
            with open(source, "r", encoding="utf-8") as handle:
                return handle.read()
        return source

    @staticmethod
    def _common_fields(
        queries: "Sequence[str] | str | None",
        projector: "Iterable[str] | None",
        options: PruneOptions | None,
        limits: "Limits | str | None",
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {}
        if projector is not None:
            fields["projector"] = sorted(projector)
        elif queries is not None:
            fields["queries"] = [queries] if isinstance(queries, str) else list(queries)
        else:
            raise ValueError("pass queries= or projector=")
        if options is None:
            options = PruneOptions()
        if limits is not None:
            from dataclasses import replace

            options = replace(options, limits=limits)
        wire = options.to_wire()
        if wire:
            fields["options"] = wire
        return fields

    @staticmethod
    def _outcome(result: dict[str, Any]) -> RemoteOutcome:
        return RemoteOutcome(
            stats=PruneStats.from_dict(result.get("stats", {})),
            text=result.get("text"),
            output_path=result.get("output_path"),
            seconds=float(result.get("seconds", 0.0)),
            worker=result.get("worker"),
            ledger=result.get("ledger"),
        )

    # -- operations ------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self.request("health")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def analyze(
        self,
        queries: "Sequence[str] | str",
        *,
        dtd: str | None = None,
        dtd_path: str | None = None,
        root: str | None = None,
        xmark: bool = False,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
    ) -> dict[str, Any]:
        """Run the static phase remotely; returns the wire result (the
        union projector as a sorted list, per-query sizes, timings)."""
        return self.request(
            "analyze",
            grammar=self._grammar_spec(
                dtd, dtd_path, root, xmark, xsd, xsd_path, grammar
            ),
            queries=[queries] if isinstance(queries, str) else list(queries),
        )

    def prune(
        self,
        source: str | None = None,
        *,
        source_path: str | None = None,
        queries: "Sequence[str] | str | None" = None,
        projector: "Iterable[str] | None" = None,
        dtd: str | None = None,
        dtd_path: str | None = None,
        root: str | None = None,
        xmark: bool = False,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
        options: PruneOptions | None = None,
        limits: "Limits | str | None" = None,
        out_path: str | None = None,
    ) -> RemoteOutcome:
        """Prune one document remotely (the service twin of
        :func:`repro.prune`)."""
        fields = self._common_fields(queries, projector, options, limits)
        fields["grammar"] = self._grammar_spec(
            dtd, dtd_path, root, xmark, xsd, xsd_path, grammar
        )
        fields["source"] = self._source_field(source, source_path)
        if out_path is not None:
            fields["out_path"] = out_path
        return self._outcome(self.request("prune", **fields))

    def extract(
        self,
        source: str | None = None,
        *,
        source_path: str | None = None,
        spec: ExtractSpec,
        dtd: str | None = None,
        dtd_path: str | None = None,
        root: str | None = None,
        xmark: bool = False,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
        options: ExtractOptions | None = None,
        limits: "Limits | str | None" = None,
        out_path: str | None = None,
    ) -> RemoteExtractOutcome:
        """Extract one document's records remotely (the service twin of
        :func:`repro.extract`)."""
        fields: dict[str, Any] = {
            "grammar": self._grammar_spec(
                dtd, dtd_path, root, xmark, xsd, xsd_path, grammar
            ),
            "source": self._source_field(source, source_path),
            "spec": spec.to_wire(),
        }
        if options is None:
            options = ExtractOptions()
        if limits is not None:
            from dataclasses import replace

            options = replace(options, limits=limits)
        wire = options.to_wire()
        if wire:
            fields["options"] = wire
        if out_path is not None:
            fields["out_path"] = out_path
        result = self.request("extract", **fields)
        return RemoteExtractOutcome(
            stats=ExtractStats.from_dict(result.get("stats", {})),
            text=result.get("text"),
            output_path=result.get("output_path"),
            seconds=float(result.get("seconds", 0.0)),
            worker=result.get("worker"),
            ledger=result.get("ledger"),
        )

    def check_update(
        self,
        update_paths: "Sequence[str] | str",
        *,
        queries: "Sequence[str] | str | None" = None,
        projector: "Iterable[str] | None" = None,
        dtd: str | None = None,
        dtd_path: str | None = None,
        root: str | None = None,
        xmark: bool = False,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
    ) -> dict[str, Any]:
        """Ask the server whether an update is provably independent of the
        workload.  Independent updates *retain* the grammar's pinned
        worker payloads; possibly-dependent ones unpin them so the next
        request re-establishes resident state.  Returns the wire result:
        ``independent``, ``reason``, ``impact``/``overlap``/``projector``
        name lists, and the ``retained``/``invalidated`` pin counts."""
        fields: dict[str, Any] = {
            "grammar": self._grammar_spec(
                dtd, dtd_path, root, xmark, xsd, xsd_path, grammar
            ),
            "update_paths": (
                [update_paths] if isinstance(update_paths, str)
                else list(update_paths)
            ),
        }
        if projector is not None:
            fields["projector"] = sorted(projector)
        elif queries is not None:
            fields["queries"] = (
                [queries] if isinstance(queries, str) else list(queries)
            )
        else:
            raise ValueError("pass queries= or projector=")
        return self.request("check_update", **fields)

    def prune_batch(
        self,
        sources: "Sequence[str] | None" = None,
        *,
        source_paths: "Sequence[str] | None" = None,
        queries: "Sequence[str] | str | None" = None,
        projector: "Iterable[str] | None" = None,
        dtd: str | None = None,
        dtd_path: str | None = None,
        root: str | None = None,
        xmark: bool = False,
        xsd: str | None = None,
        xsd_path: str | None = None,
        grammar: Any = None,
        options: PruneOptions | None = None,
        limits: "Limits | str | None" = None,
        out_dir: str | None = None,
    ) -> RemoteBatchOutcome:
        """Prune many documents in one request (admitted or refused as a
        unit; per-item failures come back as data, not exceptions: a
        :class:`~repro.errors.RemoteError` naming the server-side class)."""
        if (sources is None) == (source_paths is None):
            raise ValueError("pass exactly one of sources= or source_paths=")
        fields = self._common_fields(queries, projector, options, limits)
        fields["grammar"] = self._grammar_spec(
            dtd, dtd_path, root, xmark, xsd, xsd_path, grammar
        )
        if source_paths is not None:
            fields["sources"] = [{"path": path} for path in source_paths]
        else:
            assert sources is not None
            fields["sources"] = [
                self._source_field(item, None) for item in sources
            ]
        if out_dir is not None:
            fields["out_dir"] = out_dir
        result = self.request("prune_batch", **fields)
        items: list[RemoteOutcome | ServiceError] = []
        for item in result.get("items", ()):
            if item.get("ok"):
                items.append(self._outcome(item))
            else:
                error = item.get("error") or {}
                items.append(RemoteError(
                    str(error.get("type", "unknown")), str(error.get("message", "")),
                    code=int(error.get("code", 500)),
                ))
        return RemoteBatchOutcome(
            items=items,
            stats=PruneStats.from_dict(result.get("stats", {})),
            succeeded=int(result.get("succeeded", 0)),
            seconds=float(result.get("seconds", 0.0)),
        )
