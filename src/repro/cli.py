"""Command-line interface: ``repro-xml`` (or ``python -m repro``).

Subcommands::

    analyze        infer and print a type projector for queries + DTD
    prune          prune a document file (streaming) with an inferred projector
    extract        extract tabular records (JSONL/CSV) in one streaming pass
    validate       validate a document against a DTD
    generate       emit an XMark benchmark document
    run            run a query on a document, optionally after pruning
    serve          run the long-lived projection service (see repro.service)
    verify-ledger  replay an attestation ledger and report divergences

``prune``, ``extract`` and ``serve`` take ``--ledger PATH`` to record
every run into an append-only attestation ledger (see
:mod:`repro.ledger`) and serve identical re-runs from the recorded
bytes; ``verify-ledger`` re-earns every attestation offline.

``prune --server HOST:PORT`` (and ``extract --server``) sends the work to
a running service instead of doing it in-process, so repeated invocations
share the server's resident projector cache and warm workers.  It prints
what the local run prints; only its timing line differs, naming the
server.

Example::

    repro-xml generate --factor 0.01 --output auction.xml
    repro-xml analyze --dtd auction.dtd --root site --query "//item/name"
    repro-xml prune --dtd auction.dtd --root site \\
        --query "//item/name" auction.xml pruned.xml
    repro-xml extract --xmark --rows /site/people/person \\
        --field name=name/text() --field city=address/city/text() \\
        auction.xml --out people.jsonl

Shared flags (``--jobs``, ``--limits-profile``, ``--trace-out``,
``--metrics``, ...) are defined once in common argparse parents, so
``prune``, ``extract`` and ``run`` stay in sync by construction.
``--trace-out FILE`` writes a JSONL span/counter trace (see
:mod:`repro.obs`); ``--metrics`` prints a human-readable roll-up on
stderr when the command finishes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import repro


def _load_grammar(args, document_path: str | None = None):
    from repro.loading import load_grammar

    if args.xmark:
        return load_grammar("xmark")
    if getattr(args, "schema", None):
        return load_grammar(args.schema, format="xsd", root=args.root)
    if getattr(args, "infer_from", None):
        return load_grammar(
            args.infer_from, infer=True, root=args.root,
            on_stray=getattr(args, "on_stray", None) or "error",
        )
    if getattr(args, "infer_dtd", False):
        if document_path is None:
            raise SystemExit("--infer-dtd requires a document to summarise")
        return load_grammar(document_path, format="xml")
    if not args.dtd:
        raise SystemExit("--dtd is required (or pass --schema, --xmark, "
                         "--infer-from or --infer-dtd)")
    return load_grammar(args.dtd, format="dtd", root=args.root)


def _limits_from_args(args):
    """Build the resource limits a prune command asked for: a profile
    (``--limits-profile``, default ``default``) with ``--max-depth`` and
    ``--timeout`` layered on top."""
    from repro.limits import Limits

    limits = Limits.profile(getattr(args, "limits_profile", None) or "default")
    overrides = {}
    if getattr(args, "max_depth", None) is not None:
        overrides["max_depth"] = args.max_depth
    if getattr(args, "timeout", None) is not None:
        overrides["deadline"] = args.timeout
    return limits.replace(**overrides) if overrides else limits


def _ledger_provenance(args):
    """Grammar provenance for a recorded run, so ``verify-ledger`` can
    replay it later with no out-of-band grammar.  ``--infer-dtd``
    grammars are document-derived (no stable spec to record) — replay
    falls back to a caller-supplied grammar or skips."""
    if args.xmark:
        return {"grammar": {"xmark": True}}
    if getattr(args, "schema", None):
        spec = {"xsd_path": os.path.abspath(args.schema)}
        if args.root:
            spec["root"] = args.root
        return {"grammar": spec}
    if (
        getattr(args, "infer_dtd", False)
        or getattr(args, "infer_from", None)
        or not args.dtd
    ):
        return None
    spec = {"dtd_path": os.path.abspath(args.dtd)}
    if args.root:
        spec["root"] = args.root
    return {"grammar": spec}


def _projector(grammar, queries):
    from repro.core.cache import default_cache

    result = default_cache().analyze(grammar, queries)
    seconds = result.span.seconds if result.span is not None else 0.0
    return result.projector, seconds


def cmd_analyze(args) -> int:
    from repro.core.cache import default_cache

    grammar = _load_grammar(args)
    result = default_cache().analyze(grammar, args.query)
    projector = result.projector
    seconds = result.span.seconds if result.span is not None else 0.0
    reachable = grammar.reachable_names()
    print(f"# analysis time: {seconds * 1000:.1f} ms")
    if args.cache_stats:
        stats = default_cache().stats
        print(f"# projector cache: {stats.hits} hits, {stats.misses} misses")
    if args.explain_sat:
        unsat = sum(1 for v in result.verdicts if not v.satisfiable)
        print(f"# satisfiability: {len(result.verdicts) - unsat} SAT, "
              f"{unsat} UNSAT")
        for verdict in result.verdicts:
            status = "SAT" if verdict.satisfiable else "UNSAT"
            print(f"# {status} {verdict.query}: {verdict.reason}")
            for branch in verdict.branches:
                branch_status = "SAT" if branch.satisfiable else "UNSAT"
                print(f"#   [{branch_status}] {branch.path}: {branch.reason}")
    print(f"# projector: {len(projector)} of {len(reachable)} reachable names "
          f"({100 * len(projector & reachable) / max(1, len(reachable)):.1f}%)")
    for name in sorted(projector):
        print(name)
    return 0


def _batch_inputs(args):
    """Expand the prune/run input spec; a list means batch mode.

    Batch mode engages when ``--jobs`` is not 1 or the input names more
    than one document (a glob or a directory).
    """
    import errno

    from repro.parallel import expand_sources

    items = expand_sources(args.input)
    if not items:
        # Refused before anything (an output directory) is created.
        raise FileNotFoundError(errno.ENOENT, "no document matches", args.input)
    if getattr(args, "jobs", 1) != 1 or len(items) != 1 or items[0] != args.input:
        return items
    return None


def _failure(error: BaseException) -> tuple[str, str]:
    """A failure as ``(kind, message)``.  A server-side failure is named
    by its server-side class, as a local run names it."""
    from repro.errors import RemoteError

    if isinstance(error, RemoteError):
        return error.remote_type, str(error)[len(error.remote_type) + 2:]
    return type(error).__name__, str(error)


def _print_batch_errors(batch) -> None:
    for error in batch.errors:
        print(f"error: {error.source}: {error.kind}: {error.message}", file=sys.stderr)


def _print_sizes(stats) -> None:
    print(f"size: {stats.bytes_in} -> {stats.bytes_out} bytes ({stats.size_percent:.1f}% kept)")
    print(f"nodes: {stats.nodes_in} -> {stats.nodes_out}")


def _deliver(result, out) -> None:
    """Write the text a run handed back: a server's reply, or records
    bound for stdout (``out`` is None).  A local run wrote its file
    itself."""
    if result.text is None:
        return
    if out is None:
        sys.stdout.write(result.text)
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(result.text)


def _parse_fields(pairs):
    """``--field NAME=RELPATH`` pairs → the ExtractSpec fields mapping
    (declared order preserved — it is the output column order)."""
    fields: dict[str, str] = {}
    for item in pairs:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"--field expects NAME=RELPATH, got {item!r}")
        if name in fields:
            raise SystemExit(f"duplicate --field name {name!r}")
        fields[name] = path
    return fields


def _server_grammar_kwargs(args) -> dict:
    """The grammar spec for ``--server`` runs.  DTDs and XSDs ship by
    path text; ``--infer-from`` infers client-side (the corpus lives
    here) and ships the grammar's wire form so the server can pin it."""
    if args.xmark:
        return {"xmark": True}
    if getattr(args, "schema", None):
        kwargs = {"xsd_path": args.schema}
        if args.root:
            kwargs["root"] = args.root
        return kwargs
    if getattr(args, "infer_from", None):
        return {"grammar": _load_grammar(args)}
    if args.dtd:
        return {"dtd_path": args.dtd, "root": args.root}
    raise SystemExit("--server requires --dtd/--root, --schema, "
                     "--infer-from or --xmark (--infer-dtd runs "
                     "client-side only)")


def _runner(args, items, spec=None):
    """Who runs a ``prune`` command's items (an ``extract`` command's,
    given its ``spec``): this process, or the service at ``--server``.
    The command bodies do the rest, once for both: input expansion,
    output, the summary and the error lines."""
    if getattr(args, "server", None):
        return _Remote(args, spec)
    return _Local(args, items, spec)


class _Local:
    """Runs the items in this process: the ``prune``/``extract`` facade
    for one document, through the ``--ledger`` attestation ledger when
    given; ``prune_many``/``extract_many`` for a batch."""

    via = ""

    def __init__(self, args, items, spec) -> None:
        self.args = args
        self.spec = spec
        self.grammar = _load_grammar(
            args, document_path=items[0] if items else args.input
        )
        if items is not None and getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records single-document runs only (not batch mode)"
            )
        self.options = {"limits": _limits_from_args(args)}
        if spec is None:
            self.options.update(validate=args.validate, fast=not args.no_fast)
        else:
            self.options["format"] = args.format

    def one(self, source, out):
        """One document, timed: the result and its seconds.  A prune
        keeps its analysis seconds as ``analysis``."""
        from repro import obs
        from repro.api import prune
        from repro.extract.api import extract

        args = self.args
        if self.spec is None:
            op, run, status = "prune", prune, sys.stdout
            workload, self.analysis = _projector(self.grammar, args.query)
        else:
            op, run, workload, status = "extract", extract, self.spec, sys.stderr
        kwargs = dict(self.options)
        ledger = None
        if getattr(args, "ledger", None):
            from repro.ledger import Ledger

            ledger = Ledger(args.ledger)
            kwargs["provenance"] = _ledger_provenance(args)
        try:
            with obs.timed(f"{op}.command") as span:
                result = run(source, self.grammar, workload, out=out,
                             ledger=ledger, **kwargs)
                span.stop()
            if ledger is not None:
                print("ledger: served from recorded result" if ledger.hits
                      else "ledger: attestation recorded", file=status)
        finally:
            if ledger is not None:
                ledger.close()
        return result, span.seconds

    def many(self, items, out_dir):
        from repro.parallel import extract_many, prune_many

        args = self.args
        if self.spec is None:
            run, workload = prune_many, args.query
        else:
            run, workload = extract_many, self.spec
        return run(items, self.grammar, workload, jobs=args.jobs,
                   out_dir=out_dir, timeout=args.timeout, **self.options)


class _Remote:
    """Runs the items on the service at ``--server``.  Documents are read
    here and shipped as markup (the server may be on another machine),
    and what comes back is written here, so an output that is an input
    is refused before anything is sent or written, as in a local run.  A
    corpus prune is one ``prune_batch`` request, which the server's
    workers run concurrently; a corpus extraction is one ``extract``
    request per document."""

    def __init__(self, args, spec) -> None:
        if getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records local runs; give the flag to the server "
                "instead (`repro-xml serve --ledger PATH`)"
            )
        self.args = args
        self.spec = spec
        self.via = f" via {args.server}"
        self.fields = {"limits": _limits_from_args(args),
                       **_server_grammar_kwargs(args)}
        if spec is None:
            from repro.api import PruneOptions

            self.fields.update(queries=args.query, options=PruneOptions(
                fast=not args.no_fast, validate=args.validate))
        else:
            from repro.extract.api import ExtractOptions

            self.fields.update(spec=spec, options=ExtractOptions(format=args.format))

    def _client(self):
        from repro.service.client import ServiceClient

        return ServiceClient.from_address(self.args.server)

    def _send(self, client, source):
        send = client.prune if self.spec is None else client.extract
        return send(source=source, **self.fields)

    def one(self, source, out):
        from repro.run import _refuse_overwriting_source

        if out is not None:
            _refuse_overwriting_source(source, out)
        with self._client() as client:
            outcome = self._send(client, source)
        return outcome, outcome.seconds

    def _each(self, client, items):
        """One request per document: its outcome, or its failure."""
        from repro.errors import ReproError

        for source in items:
            try:
                yield self._send(client, source)
            except (ReproError, OSError) as exc:
                yield exc

    def many(self, items, out_dir):
        from repro.extract.stats import ExtractStats
        from repro.parallel import (
            _EXTRACT_SUFFIXES,
            BatchResult,
            _output_paths,
            _record_error,
            _record_success,
            _refuse_overwriting_sources,
        )
        from repro.projection.stats import PruneStats

        suffix = None if self.spec is None else _EXTRACT_SUFFIXES[self.args.format]
        out_paths = _output_paths(items, out_dir, suffix)
        _refuse_overwriting_sources(items, out_paths)
        batch = BatchResult(results=[None] * len(items),
                            stats=PruneStats() if self.spec is None else ExtractStats())
        started = time.perf_counter()
        with self._client() as client:
            os.makedirs(out_dir, exist_ok=True)
            if self.spec is None:
                outcomes = client.prune_batch(sources=items, **self.fields).items
            else:
                outcomes = self._each(client, items)
            for index, outcome in enumerate(outcomes):
                if isinstance(outcome, Exception):
                    _record_error(batch, index, items[index], *_failure(outcome))
                else:
                    _deliver(outcome, out_paths[index])
                    _record_success(batch, index, outcome)
        batch.seconds = time.perf_counter() - started
        return batch


def cmd_prune(args) -> int:
    items = _batch_inputs(args)
    run = _runner(args, items)
    if items is None:
        result, seconds = run.one(args.input, args.output)
        _deliver(result, args.output)
        print(f"pruned{run.via} in {seconds:.2f} s" if run.via else
              f"analysis: {run.analysis * 1000:.1f} ms, pruning: {seconds:.2f} s")
        _print_sizes(result.stats)
        return 0
    batch = run.many(items, args.output)
    print(f"pruned {batch.succeeded}/{batch.documents} documents"
          f"{run.via or f' with {batch.jobs} job(s)'} in {batch.seconds:.2f} s")
    _print_sizes(batch.stats)
    _print_batch_errors(batch)
    return 1 if batch.errors else 0


def cmd_extract(args) -> int:
    from repro.extract import ExtractSpec

    spec = ExtractSpec(rows=args.rows, fields=_parse_fields(args.field), null=args.null)
    items = _batch_inputs(args)
    run = _runner(args, items, spec)
    if items is None:
        result, seconds = run.one(args.input, args.out)
        _deliver(result, args.out)
        # Records to stdout, summary to stderr so the stream stays clean.
        stream = sys.stderr if args.out is None else sys.stdout
        stats = result.stats
        print(f"extracted {stats.rows_out} row(s), {stats.nulls_out} null(s)"
              f"{run.via} in {seconds:.2f} s", file=stream)
        print(f"bytes: {stats.bytes_in} in -> {stats.bytes_out} out", file=stream)
        return 0
    if args.out is None:
        raise SystemExit("batch extract requires --out DIRECTORY")
    batch = run.many(items, args.out)
    stats = batch.stats
    print(f"extracted {batch.succeeded}/{batch.documents} documents"
          f"{run.via or f' with {batch.jobs} job(s)'} in {batch.seconds:.2f} s")
    print(f"rows: {stats.rows_out} ({stats.nulls_out} nulls), "
          f"bytes: {stats.bytes_in} in -> {stats.bytes_out} out")
    _print_batch_errors(batch)
    return 1 if batch.errors else 0


def cmd_validate(args) -> int:
    from repro.dtd.validator import validate
    from repro.errors import ValidationError
    from repro.xmltree.builder import parse_document

    grammar = _load_grammar(args)
    with open(args.input, "r", encoding="utf-8") as handle:
        document = parse_document(handle, strip_whitespace=True)
    try:
        interpretation = validate(document, grammar)
    except ValidationError as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(f"valid: {document.size()} nodes, {len(set(interpretation.names.values()))} distinct names")
    return 0


def cmd_generate(args) -> int:
    from repro.workloads.xmark.generator import generate_file

    written = generate_file(args.output, factor=args.factor, seed=args.seed)
    print(f"wrote {written} bytes to {args.output}")
    return 0


def cmd_run(args) -> int:
    from repro.engine.executor import QueryEngine
    from repro.projection.tree import prune_document
    from repro.dtd.validator import validate
    from repro.xmltree.builder import parse_document

    items = _batch_inputs(args)
    first_doc = items[0] if items else args.input
    grammar = (
        _load_grammar(args, document_path=first_doc)
        if (args.dtd or args.xmark or getattr(args, "infer_dtd", False))
        else None
    )

    if items is not None:
        from repro.engine.loader import load_many

        if grammar is None:
            raise SystemExit("batch run requires --dtd/--root, --xmark or --infer-dtd")
        query = args.query[0]
        reports, batch = load_many(items, grammar, args.query, jobs=args.jobs)
        results = touched = 0
        seconds = 0.0
        for report in reports:
            if report is None:
                continue
            run = QueryEngine(report.document).run(query)
            results += run.result_count
            touched += run.nodes_touched
            seconds += run.query_seconds
        print(f"queried {batch.succeeded}/{batch.documents} documents "
              f"with {batch.jobs} job(s)")
        print(f"results: {results}")
        print(f"query time: {seconds:.3f} s, nodes touched: {touched}")
        _print_batch_errors(batch)
        return 1 if batch.errors else 0

    with open(args.input, "r", encoding="utf-8") as handle:
        document = parse_document(handle, strip_whitespace=True)
    query = args.query[0]
    if args.prune:
        if grammar is None:
            raise SystemExit("--prune requires --dtd/--root, --xmark or --infer-dtd")
        projector, _ = _projector(grammar, [query])
        interpretation = validate(document, grammar)
        document = prune_document(document, interpretation, projector)
    engine = QueryEngine(document)
    report = engine.run(query)
    print(f"results: {report.result_count}")
    print(f"query time: {report.query_seconds:.3f} s, nodes touched: {report.nodes_touched}")
    print(f"modelled memory: {report.total_bytes / 1e6:.2f} MB")
    return 0


def cmd_verify_ledger(args) -> int:
    """Replay every recorded attestation (``repro-xml verify-ledger``):
    exit 0 iff no entry diverged.  Skipped entries (source gone, grammar
    unrecoverable) are reported on stderr but do not fail the run."""
    from repro.ledger import replay_ledger

    grammars = []
    if args.xmark or args.dtd:
        grammars.append(_load_grammar(args))
    report = replay_ledger(
        args.ledger, grammars=grammars, since=args.since, jobs=args.jobs
    )
    noun = "entry" if report.total == 1 else "entries"
    print(f"replayed {report.total} {noun}: {report.attested} attested, "
          f"{len(report.divergent)} divergent, {len(report.skipped)} skipped")
    for item in report.divergent:
        where = f" source={item.source}" if item.source else ""
        print(f"DIVERGENT seq={item.seq} op={item.op}{where}: {item.reason}",
              file=sys.stderr)
        if item.actual:
            print(f"  expected {item.expected}", file=sys.stderr)
            print(f"  actual   {item.actual}", file=sys.stderr)
    for item in report.skipped:
        print(f"skipped seq={item.seq} op={item.op}: {item.reason}",
              file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from repro.service.config import ServiceConfig
    from repro.service.server import ProjectionServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs or None,
        queue_limit=args.queue_limit,
        per_connection=args.per_connection,
        limits=_limits_from_args(args),
        tracing=bool(getattr(args, "trace_out", None) or getattr(args, "metrics", False)),
        ledger=getattr(args, "ledger", None),
    )
    server = ProjectionServer(config)

    def ready(srv) -> None:
        # Parsable by wrappers that need the bound port (port 0 picks one).
        print(f"serving on {config.host}:{srv.port}", flush=True)

    return server.run(ready=ready)


def _shared_parents():
    """The flag groups shared across subcommands, each defined exactly
    once and attached through argparse's ``parents`` mechanism — so
    ``prune``, ``extract`` and ``run`` cannot drift out of sync."""
    grammar = argparse.ArgumentParser(add_help=False)
    grammar.add_argument("--dtd", help="path to the DTD file")
    grammar.add_argument("--schema", metavar="FILE.xsd",
                         help="path to an XML Schema file (compiled to the "
                              "same grammar substrate as a DTD)")
    grammar.add_argument("--root",
                         help="root element tag (default: the DTD's first "
                              "declared element / the XSD's first global "
                              "element)")
    grammar.add_argument("--xmark", action="store_true",
                         help="use the built-in XMark DTD")
    grammar.add_argument("--infer-dtd", action="store_true",
                         help="summarise the input document into a dataguide "
                              "grammar (no DTD needed)")
    grammar.add_argument("--infer-from", metavar="GLOB",
                         help="infer a grammar from a corpus sample (a file, "
                              "glob, or directory) instead of loading a "
                              "schema; see --on-stray for documents outside "
                              "the sample's shape")
    grammar.add_argument("--on-stray", choices=("error", "copy"),
                         default="error",
                         help="what an inferred grammar does with documents "
                              "that stray from the sample: refuse loudly "
                              "(error, default) or pass them through "
                              "verbatim (copy); pruning a stray would drop "
                              "unknown content silently")

    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--query", action="append", required=True,
                       help="XPath or XQuery (repeatable: projectors union)")

    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument("--trace-out", metavar="FILE",
                               help="write a JSONL span/counter trace to FILE")
    observability.add_argument("--metrics", action="store_true",
                               help="print a metrics roll-up to stderr on exit")

    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument("--limits-profile", choices=("strict", "default", "off"),
                       default="default",
                       help="resource-limit profile for the pass (default: default)")
    limit.add_argument("--max-depth", type=int, metavar="N",
                       help="maximum element nesting depth (overrides the profile)")
    limit.add_argument("--timeout", type=float, metavar="SECONDS",
                       help="per-document wall-clock budget; in batch mode a "
                            "stuck worker is killed and only its item fails")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for batch mode (0 = every usable CPU)")

    ledger = argparse.ArgumentParser(add_help=False)
    ledger.add_argument("--ledger", metavar="PATH",
                        help="append an attestation for this run to the "
                             "ledger at PATH and serve identical re-runs "
                             "from the recorded bytes (see "
                             "`repro-xml verify-ledger`)")

    return {
        "grammar": grammar, "query": query, "obs": observability,
        "limit": limit, "jobs": jobs, "ledger": ledger,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xml", description="Type-based XML projection (VLDB 2006)"
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parents = _shared_parents()

    p = sub.add_parser("analyze", help="infer a type projector",
                       parents=[parents["grammar"], parents["query"],
                                parents["obs"]])
    p.add_argument("--cache-stats", action="store_true",
                   help="print projector-cache hit/miss counters")
    p.add_argument("--explain-sat", action="store_true",
                   help="print the satisfiability pre-pass verdict (SAT/"
                        "UNSAT with the reason, per query and per "
                        "qualifier branch)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prune", help="prune a document file (streaming) or a corpus",
                       parents=[parents["grammar"], parents["query"],
                                parents["obs"], parents["limit"],
                                parents["jobs"], parents["ledger"]])
    p.add_argument("input", help="document file, or a glob/directory for batch mode")
    p.add_argument("output", help="output file (or output directory in batch mode)")
    p.add_argument("--validate", action="store_true", help="validate while pruning")
    p.add_argument("--no-fast", action="store_true",
                   help="use the event pipeline instead of the fused fast path")
    p.add_argument("--server", metavar="HOST:PORT",
                   help="send the work to a running projection service "
                        "(see `repro-xml serve`) instead of pruning locally")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("extract",
                       help="extract tabular records (JSONL/CSV) in one "
                            "streaming pass",
                       parents=[parents["grammar"], parents["obs"],
                                parents["limit"], parents["jobs"],
                                parents["ledger"]])
    p.add_argument("input", help="document file, or a glob/directory for batch mode")
    p.add_argument("--rows", required=True, metavar="PATH",
                   help="absolute path of the row elements, "
                        "e.g. /site/people/person")
    p.add_argument("--field", action="append", required=True, metavar="NAME=RELPATH",
                   help="output column: NAME=row-relative path "
                        "(name/text(), @id, address/city/text(); repeatable, "
                        "declaration order = column order)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                   help="record encoding (default: jsonl)")
    p.add_argument("--null", metavar="TEXT",
                   help="spelling for missing fields (default: JSON null / "
                        "empty CSV cell)")
    p.add_argument("--out", metavar="PATH",
                   help="output file (directory in batch mode; default: stdout)")
    p.add_argument("--server", metavar="HOST:PORT",
                   help="send the work to a running projection service "
                        "instead of extracting locally")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("validate", help="validate a document",
                       parents=[parents["grammar"]])
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="generate an XMark document")
    p.add_argument("--factor", type=float, default=0.01, help="scale factor (1.0 ≈ 80 MB)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("serve", help="run the long-lived projection service",
                       parents=[parents["obs"], parents["limit"],
                                parents["ledger"]])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="port to bind (default 0 = pick a free port; the "
                        "bound port is printed on startup)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="resident worker processes (0 = every usable CPU)")
    p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                   help="server-wide admitted-request bound; excess requests "
                        "get a structured 429-style refusal")
    p.add_argument("--per-connection", type=int, default=8, metavar="N",
                   help="in-flight request cap per client connection")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("verify-ledger",
                       help="replay every recorded attestation and report "
                            "divergences",
                       parents=[parents["grammar"]])
    p.add_argument("--ledger", required=True, metavar="PATH",
                   help="the attestation ledger to replay")
    p.add_argument("--since", type=int, metavar="N",
                   help="replay only entries with sequence number >= N")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="replay threads (each entry re-runs independently)")
    p.set_defaults(func=cmd_verify_ledger)

    p = sub.add_parser("run", help="run a query (optionally with pruning)",
                       parents=[parents["grammar"], parents["query"],
                                parents["obs"], parents["jobs"]])
    p.add_argument("input", help="document file, or a glob/directory for batch mode")
    p.add_argument("--prune", action="store_true", help="prune before running")
    p.set_defaults(func=cmd_run)

    return parser


def _configure_obs(args) -> bool:
    """Install trace/metrics sinks when the command asked for them."""
    trace_out = getattr(args, "trace_out", None)
    metrics = getattr(args, "metrics", False)
    if not trace_out and not metrics:
        return False
    from repro import obs

    sinks = []
    if trace_out:
        sinks.append(obs.JsonlSink(trace_out))
    if metrics:
        sinks.append(obs.SummarySink(sys.stderr))
    obs.configure(*sinks)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configured = _configure_obs(args)
    from repro.errors import ReproError

    try:
        try:
            return args.func(args)
        except (ReproError, OSError) as error:
            # Structured refusals (syntax, validation, resource limits)
            # are expected outcomes on hostile input, and so is a path
            # that cannot be read or written — report, don't traceback.
            print("error: %s: %s" % _failure(error), file=sys.stderr)
            return 1
    finally:
        if configured:
            from repro import obs

            obs.shutdown()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
