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
share the server's resident projector cache and warm workers.

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
import sys


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


def _open_ledger(args):
    """The ``--ledger`` flag, opened — or ``None`` when unset.  Ledger
    recording is single-document, local-run bookkeeping: batch mode and
    ``--server`` refuse the flag loudly rather than silently skipping."""
    path = getattr(args, "ledger", None)
    if not path:
        return None
    if getattr(args, "server", None):
        raise SystemExit(
            "--ledger records local runs; give the flag to the server "
            "instead (`repro-xml serve --ledger PATH`)"
        )
    from repro.ledger import Ledger

    return Ledger(path)


def _ledger_provenance(args):
    """Grammar provenance for a recorded run, so ``verify-ledger`` can
    replay it later with no out-of-band grammar.  ``--infer-dtd``
    grammars are document-derived (no stable spec to record) — replay
    falls back to a caller-supplied grammar or skips."""
    if args.xmark:
        return {"grammar": {"xmark": True}}
    if getattr(args, "schema", None):
        import os

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
    import os

    spec = {"dtd_path": os.path.abspath(args.dtd)}
    if args.root:
        spec["root"] = args.root
    return {"grammar": spec}


def _is_xquery(query: str) -> bool:
    from repro.querylang import looks_like_xquery

    return looks_like_xquery(query)


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
    from repro.parallel import expand_sources

    items = expand_sources(args.input)
    if getattr(args, "jobs", 1) != 1 or len(items) != 1 or items[0] != args.input:
        return items
    return None


def _print_batch_errors(batch) -> None:
    for error in batch.errors:
        print(f"error: {error.source}: {error.kind}: {error.message}", file=sys.stderr)


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


def _prune_via_server(args) -> int:
    """Send ``prune`` work to a running projection service.

    Documents are read client-side and shipped as markup (the server may
    be on another machine); pruned markup comes back over the socket and
    is written locally, so the command's filesystem contract matches the
    in-process path exactly.
    """
    from repro.api import PruneOptions
    from repro.parallel import _output_paths
    from repro.service.client import ServiceClient

    grammar_kwargs = _server_grammar_kwargs(args)
    options_kwargs = {
        "queries": args.query,
        "options": PruneOptions(fast=not args.no_fast, validate=args.validate),
        "limits": _limits_from_args(args),
        **grammar_kwargs,
    }

    items = _batch_inputs(args)
    with ServiceClient.from_address(args.server) as client:
        if items is None:
            outcome = client.prune(source=args.input, **options_kwargs)
            assert outcome.text is not None
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(outcome.text)
            stats = outcome.stats
            print(f"pruned via {args.server} in {outcome.seconds:.2f} s")
            print(f"size: {stats.bytes_in} -> {stats.bytes_out} bytes "
                  f"({stats.size_percent:.1f}% kept)")
            print(f"nodes: {stats.nodes_in} -> {stats.nodes_out}")
            return 0

        import os

        os.makedirs(args.output, exist_ok=True)
        batch = client.prune_batch(sources=list(items), **options_kwargs)
        failures = 0
        for item, out_path in zip(batch.items, _output_paths(items, args.output)):
            if isinstance(item, Exception):
                failures += 1
                print(f"error: {item}", file=sys.stderr)
                continue
            assert item.text is not None
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(item.text)
        stats = batch.stats
        print(f"pruned {batch.succeeded}/{len(items)} documents via "
              f"{args.server} in {batch.seconds:.2f} s")
        print(f"size: {stats.bytes_in} -> {stats.bytes_out} bytes "
              f"({stats.size_percent:.1f}% kept)")
        print(f"nodes: {stats.nodes_in} -> {stats.nodes_out}")
        return 1 if failures else 0


def cmd_prune(args) -> int:
    from repro import obs
    from repro.api import prune

    if getattr(args, "server", None):
        if getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records local runs; give the flag to the server "
                "instead (`repro-xml serve --ledger PATH`)"
            )
        return _prune_via_server(args)

    items = _batch_inputs(args)
    first_doc = items[0] if items else args.input
    grammar = _load_grammar(args, document_path=first_doc)

    if items is not None:
        if getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records single-document runs only (not batch mode)"
            )
        from repro.parallel import prune_many

        batch = prune_many(
            items, grammar, args.query,
            jobs=args.jobs, out_dir=args.output,
            validate=args.validate, fast=not args.no_fast,
            limits=_limits_from_args(args), timeout=args.timeout,
        )
        stats = batch.stats
        print(f"pruned {batch.succeeded}/{batch.documents} documents "
              f"with {batch.jobs} job(s) in {batch.seconds:.2f} s")
        print(f"size: {stats.bytes_in} -> {stats.bytes_out} bytes ({stats.size_percent:.1f}% kept)")
        print(f"nodes: {stats.nodes_in} -> {stats.nodes_out}")
        _print_batch_errors(batch)
        return 1 if batch.errors else 0

    projector, seconds = _projector(grammar, args.query)
    ledger = _open_ledger(args)
    try:
        with obs.timed("prune.command") as span:
            result = prune(
                args.input, grammar, projector, out=args.output,
                validate=args.validate, fast=not args.no_fast,
                limits=_limits_from_args(args),
                ledger=ledger,
                provenance=_ledger_provenance(args) if ledger else None,
            )
            span.stop()
        if ledger is not None:
            print("ledger: served from recorded result" if ledger.hits
                  else "ledger: attestation recorded")
    finally:
        if ledger is not None:
            ledger.close()
    stats = result.stats
    print(f"analysis: {seconds * 1000:.1f} ms, pruning: {span.seconds:.2f} s")
    print(f"size: {stats.bytes_in} -> {stats.bytes_out} bytes ({stats.size_percent:.1f}% kept)")
    print(f"nodes: {stats.nodes_in} -> {stats.nodes_out}")
    return 0


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


def _extract_summary(stats, seconds: float, file=None) -> None:
    print(f"extracted {stats.rows_out} row(s), {stats.nulls_out} null(s) "
          f"in {seconds:.2f} s", file=file or sys.stdout)
    print(f"bytes: {stats.bytes_in} in -> {stats.bytes_out} out",
          file=file or sys.stdout)


def _extract_via_server(args, spec) -> int:
    """Send ``extract`` work to a running projection service.  Documents
    are read client-side and shipped as markup; encoded records come back
    over the socket and are written locally (stdout without ``--out``)."""
    from repro.extract.api import ExtractOptions
    from repro.service.client import ServiceClient

    grammar_kwargs = _server_grammar_kwargs(args)
    options = ExtractOptions(format=args.format)
    items = _batch_inputs(args)
    failures = 0
    with ServiceClient.from_address(args.server) as client:
        if items is None:
            items = [args.input]
        import os

        batch_mode = len(items) > 1 or getattr(args, "jobs", 1) != 1
        if batch_mode and args.out is None:
            raise SystemExit("batch extract requires --out DIRECTORY")
        if batch_mode:
            os.makedirs(args.out, exist_ok=True)
        from repro.parallel import _EXTRACT_SUFFIXES, _output_paths

        out_paths = (
            _output_paths(items, args.out, _EXTRACT_SUFFIXES[args.format])
            if batch_mode
            else [args.out]
        )
        rows = nulls = 0
        for source, out_path in zip(items, out_paths):
            try:
                outcome = client.extract(
                    source=source, spec=spec, options=options,
                    limits=_limits_from_args(args), **grammar_kwargs,
                )
            except Exception as exc:
                failures += 1
                print(f"error: {source}: {exc}", file=sys.stderr)
                continue
            assert outcome.text is not None
            if out_path is None:
                sys.stdout.write(outcome.text)
            else:
                with open(out_path, "w", encoding="utf-8") as handle:
                    handle.write(outcome.text)
            rows += outcome.stats.rows_out
            nulls += outcome.stats.nulls_out
        print(f"extracted {rows} row(s), {nulls} null(s) from "
              f"{len(items) - failures}/{len(items)} document(s) via {args.server}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_extract(args) -> int:
    from repro import obs
    from repro.extract import ExtractSpec, extract

    spec = ExtractSpec(rows=args.rows, fields=_parse_fields(args.field), null=args.null)

    if getattr(args, "server", None):
        if getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records local runs; give the flag to the server "
                "instead (`repro-xml serve --ledger PATH`)"
            )
        return _extract_via_server(args, spec)

    items = _batch_inputs(args)
    first_doc = items[0] if items else args.input
    grammar = _load_grammar(args, document_path=first_doc)

    if items is not None:
        if getattr(args, "ledger", None):
            raise SystemExit(
                "--ledger records single-document runs only (not batch mode)"
            )
        from repro.parallel import extract_many

        if args.out is None:
            raise SystemExit("batch extract requires --out DIRECTORY")
        batch = extract_many(
            items, grammar, spec,
            jobs=args.jobs, out_dir=args.out, format=args.format,
            limits=_limits_from_args(args), timeout=args.timeout,
        )
        stats = batch.stats
        print(f"extracted {batch.succeeded}/{batch.documents} documents "
              f"with {batch.jobs} job(s) in {batch.seconds:.2f} s")
        print(f"rows: {stats.rows_out} ({stats.nulls_out} nulls), "
              f"bytes: {stats.bytes_in} in -> {stats.bytes_out} out")
        _print_batch_errors(batch)
        return 1 if batch.errors else 0

    ledger = _open_ledger(args)
    try:
        with obs.timed("extract.command") as span:
            result = extract(
                args.input, grammar, spec, out=args.out, format=args.format,
                limits=_limits_from_args(args),
                ledger=ledger,
                provenance=_ledger_provenance(args) if ledger else None,
            )
            span.stop()
        if ledger is not None:
            print("ledger: served from recorded result" if ledger.hits
                  else "ledger: attestation recorded", file=sys.stderr)
    finally:
        if ledger is not None:
            ledger.close()
    if args.out is None:
        # Records to stdout, summary to stderr so the stream stays clean.
        assert result.text is not None
        sys.stdout.write(result.text)
        _extract_summary(result.stats, span.seconds, file=sys.stderr)
    else:
        _extract_summary(result.stats, span.seconds)
    return 0


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


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return repro.__version__


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
                        version=f"%(prog)s {_version()}")
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
        except ReproError as error:
            # Structured refusals (syntax, validation, resource limits)
            # are expected outcomes on hostile input — report, don't
            # traceback.
            print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
            return 1
    finally:
        if configured:
            from repro import obs

            obs.shutdown()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
