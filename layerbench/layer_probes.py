"""Per-layer probes: every layer of the pruning stack timed from outside.

Each probe calls one layer through its public functions, on the running
workload's own documents (``LayerInputs.documents``) and projector, inside
a benchmark-side ``bench.<layer>`` span; the program's own spans
(``prune``, ``analysis``, ``prune.batch``, ...) nest beneath it.  Every
workload reports the same metric set, so a per-layer number means "this
layer, on this workload's inputs".  The service layers are the exception:
they come from the service probe (``ServiceWorkload.layer_metrics``) on
the service workload's pool, whatever the workload.

Outputs that have a reference are checked here too: every fused-path
output must hash to the event pipeline's output for the same document.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable

import benchstats
from benchenv import MB, Checker, person_spec, sha256_file
from benchstats import timed
from calibration import Calibration, Timings, pinned

#: XPathMark queries whose literal the service mix varies per request
#: (QP17, QP19, QP20, QP22, QP24, QP32); ``{n}`` takes one of
#: ``LITERALS`` values.  A literal never changes the projector, but the
#: projector cache keys on the query text, so each variant is a miss.
PARAM_TEMPLATES = {
    "QP17": "/site/people/person[@id='person{n}']/name",
    "QP19": "/site/closed_auctions/closed_auction[price > {n}]/price",
    "QP20": "/site/people/person[profile/age > {n}]/name",
    "QP22": "//person[contains(name, 'Ada{n}')]/emailaddress",
    "QP24": "/site/open_auctions/open_auction[initial >= {n}]/interval/start",
    "QP32": "//person[starts-with(emailaddress, 'mailto:person{n}')]/name",
}
LITERALS = 10_000


def param_query(rng: random.Random) -> str:
    template = PARAM_TEMPLATES[rng.choice(sorted(PARAM_TEMPLATES))]
    return template.format(n=rng.randrange(LITERALS))


@dataclass
class LayerInputs:
    """What the probes run on: the workload's documents and projector,
    the queries (or extract spec) that produce the projector, and the
    workload's unit operation for the tracing-overhead comparison."""

    grammar: Any
    documents: list[str]
    projector: frozenset[str]
    queries: list[str] | None
    spec: Any | None
    operation: Callable[[], None]
    seed: int
    references: dict[str, str] = field(default_factory=dict)


class TimedSink:
    """Text sink wrapper that times and counts the writes reaching it."""

    def __init__(self, inner: IO[str]) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.writes = 0
        self.bytes = 0

    def write(self, text: str) -> int:
        started = time.perf_counter()
        written = self.inner.write(text)
        self.seconds += time.perf_counter() - started
        self.writes += 1
        self.bytes += len(text.encode("utf-8"))
        return written


def references(grammar: Any, documents: list[str], projector: frozenset[str],
               scratch: Path) -> dict[str, str]:
    """SHA-256 of the event pipeline's output per document: what every
    fused-path output of the same projector must equal."""
    import repro

    digests = {}
    target = scratch / "reference.xml"
    for path in documents:
        repro.prune(path, grammar, projector, out=str(target), fast=False)
        digests[path] = sha256_file(target)
    target.unlink()
    return digests


def tracing_overhead_pct(operation: Callable[[], None], seconds: float) -> float:
    """Traced vs untraced time of the workload's unit operation: the
    median ratio over back-to-back pairs, each pair run in the opposite
    order to the last and every time calibrated (``calibration.py``), so
    a change of machine speed hits both sides alike."""
    from repro import obs

    # The two sides alternate, so the slowdowns they see match and a plain
    # ratio (elasticity 1) serves.
    timings = Timings(Calibration(), 1.0)

    def traced() -> None:
        with obs.capture():
            operation()

    ratios: list[float] = []
    deadline = time.perf_counter() + seconds
    # One CPU, so the rounds measure the CPU the operation ran on.
    with pinned({min(os.sched_getaffinity(0))}):
        while len(ratios) < 2 or time.perf_counter() < deadline:
            for fn in ((operation, traced) if len(ratios) % 2 else (traced, operation)):
                timings.call(fn)
            first, second = timings.calibrated[-2:]
            ratios.append(second / first if len(ratios) % 2 else first / second)
    return 100.0 * (benchstats.median(ratios) - 1.0)


def run_probes(inputs: LayerInputs, scratch: Path, repeats: int,
               checker: Checker) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead and the machine
    calibration; call under a live tracer so the ``bench.*`` spans are
    recorded."""
    import repro
    from repro import obs
    from repro.projection.fastpath import FastPruner
    from repro.projection.stats import PruneStats
    from repro.xmltree.lexer import Scanner

    grammar, documents, projector = inputs.grammar, inputs.documents, inputs.projector
    out = scratch / "probe.xml"
    metrics: dict[str, float] = {}

    def over_documents(fn: Callable[[str], Any]) -> float:
        return benchstats.median(
            [sum(timed(fn, path)[0] for path in documents) for _ in range(repeats)]
        )

    # -- floors ----------------------------------------------------------
    def read_decode(path: str) -> None:
        with open(path, "rb") as handle:
            handle.read().decode("utf-8")

    def scan_floor(path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            scanner = Scanner(handle)
            while True:
                scanner.skip_until_any("<")
                if scanner.at_eof():
                    return
                scanner.advance()
                scanner.read_tag_content()

    with obs.span("bench.io", probe="read_decode"):
        metrics["io.read_decode_s"] = over_documents(read_decode)
    with obs.span("bench.lexer", probe="scan_floor"):
        metrics["lexer.scan_floor_s"] = over_documents(scan_floor)

    # -- the fused fast path ---------------------------------------------
    def fused(names: frozenset[str]) -> Callable[[str], None]:
        def run(path: str) -> None:
            with open(path, "r", encoding="utf-8") as source, \
                    open(out, "w", encoding="utf-8") as sink:
                FastPruner(grammar, names).write(source, sink)
        return run

    with obs.span("bench.fastpath", probe="write"):
        metrics["fastpath.write_s"] = over_documents(fused(projector))
    with obs.span("bench.fastpath", probe="skip_all"):
        metrics["fastpath.skip_all_s"] = over_documents(
            fused(frozenset((grammar.root,)))
        )
    with obs.span("bench.fastpath", probe="keep_all"):
        metrics["fastpath.keep_all_s"] = over_documents(fused(grammar.names()))
    metrics["fastpath.gap_to_scan_floor"] = (
        metrics["fastpath.write_s"] / metrics["lexer.scan_floor_s"]
    )

    # One counted, checked and sink-timed pass with the workload projector.
    stats = PruneStats()
    kept_in = kept_out = 0
    sink_seconds = 0.0
    sink_writes = sink_bytes = 0
    kept_texts: list[str] = []
    kept_values: list[str] = []
    for path in documents:
        with open(path, "r", encoding="utf-8") as source, \
                open(out, "w", encoding="utf-8") as handle:
            sink = TimedSink(handle)
            with obs.span("bench.sink", probe="write"):
                FastPruner(grammar, projector, stats=stats).write(source, sink)
        sink_seconds += sink.seconds
        sink_writes += sink.writes
        sink_bytes += sink.bytes
        kept_in += os.path.getsize(path)
        kept_out += os.path.getsize(out)
        checker.check(
            sha256_file(out) == inputs.references[path],
            f"fast-path output of {os.path.basename(path)} differs from "
            f"the event pipeline",
        )
        _collect_kept_values(out, kept_texts, kept_values)
    metrics["sink.write_s"] = sink_seconds
    metrics["sink.writes"] = sink_writes
    metrics["sink.bytes_out"] = sink_bytes
    for name in ("elements_in", "elements_out", "texts_in", "texts_out",
                 "attributes_in", "attributes_out"):
        metrics[f"fastpath.{name}"] = getattr(stats, name)
    metrics["fastpath.kept_bytes_ratio"] = kept_out / kept_in

    def facade(path: str) -> None:
        repro.prune(path, grammar, projector, out=str(out))

    with obs.span("bench.fastpath", probe="per_document"):
        metrics["fastpath.per_doc_ms_p50"] = 1000.0 * benchstats.median(
            [timed(facade, path)[0] for path in documents]
        )

    # -- serializer escaping, over every kept text and attribute value -----
    from repro.xmltree.serializer import escape_attribute, escape_text

    def escape_all() -> None:
        for text in kept_texts:
            escape_text(text)
        for value in kept_values:
            escape_attribute(value)

    with obs.span("bench.serializer", probe="escape"):
        metrics["serializer.escape_s"] = benchstats.median(
            [timed(escape_all)[0] for _ in range(repeats)]
        )

    # -- the event pipeline (reference path) --------------------------------
    def event_prune(path: str) -> None:
        repro.prune(path, grammar, projector, out=str(out), fast=False)

    with obs.span("bench.streaming", probe="event_prune"):
        metrics["streaming.event_prune_s"] = over_documents(event_prune)

    metrics.update(_setup_layers(inputs, repeats))
    metrics.update(_query_layers(grammar, inputs.seed))
    metrics.update(_ledger_layers(documents, out, scratch))
    metrics.update(_protocol_layers(inputs))
    metrics.update(_parallel_layers(inputs, scratch, checker))
    metrics.update(_extract_layers(grammar, documents))
    out.unlink(missing_ok=True)
    return metrics


def _collect_kept_values(path: Path, texts: list[str], values: list[str]) -> None:
    from repro.xmltree.events import Characters, StartElement
    from repro.xmltree.parser import parse_events

    with open(path, "r", encoding="utf-8") as handle:
        for event in parse_events(handle):
            if isinstance(event, Characters):
                texts.append(event.text)
            elif isinstance(event, StartElement):
                values.extend(event.attributes.values())


def _setup_layers(inputs: LayerInputs, repeats: int) -> dict[str, float]:
    """Cold grammar load, cold analysis, cold prune-table compile; each
    repeat starts from a freshly loaded grammar so no memo helps."""
    import repro
    from repro import obs
    from repro.core.cache import ProjectorCache
    from repro.projection.prunetable import PruneTable
    from repro.workloads.xmark.dtd import XMARK_DTD

    load, analyse, compile_ = [], [], []
    for _ in range(repeats):
        with obs.span("bench.loading", probe="grammar"):
            seconds, grammar = timed(repro.load_grammar, XMARK_DTD, root="site")
        load.append(seconds)
        with obs.span("bench.analysis", probe="workload"):
            if inputs.spec is not None:
                seconds, projector = timed(
                    ProjectorCache().projector_for_spec, grammar, inputs.spec
                )
            else:
                seconds, result = timed(repro.analyze, grammar, inputs.queries)
                projector = result.projector
        analyse.append(seconds)
        with obs.span("bench.prunetable", probe="compile"):
            compile_.append(timed(PruneTable, grammar, projector, True)[0])
    return {
        "loading.grammar_ms": 1000.0 * benchstats.median(load),
        "analysis.workload_ms": 1000.0 * benchstats.median(analyse),
        "prunetable.compile_ms": 1000.0 * benchstats.median(compile_),
    }


def _query_layers(grammar: Any, seed: int, count: int = 24) -> dict[str, float]:
    """Projector-cache misses and satisfiability verdicts for fresh
    parameterised queries (the service mix's per-request static work)."""
    from repro import obs
    from repro.core.cache import ProjectorCache
    from repro.static.sat import classify_query

    rng = random.Random(seed)
    queries = [param_query(rng) for _ in range(count)]
    cache = ProjectorCache()
    with obs.span("bench.analysis", probe="cache_miss"):
        misses = [timed(cache.analyze, grammar, [query])[0] for query in queries]
    with obs.span("bench.static", probe="classify"):
        verdicts = [timed(classify_query, grammar, query)[0] for query in queries]
    return {
        "analysis.miss_ms_p50": 1000.0 * benchstats.median(misses),
        "analysis.miss_ms_max": 1000.0 * max(misses),
        "static.classify_ms_p50": 1000.0 * benchstats.median(verdicts),
    }


def _ledger_layers(documents: list[str], output: Path, scratch: Path,
                   count: int = 10) -> dict[str, float]:
    """Content hashing of the inputs, and fsync'd record / verified fetch
    of this workload's pruned output in a scratch ledger."""
    from repro import obs
    from repro.ledger import Ledger
    from repro.ledger.canonical import hash_file, hash_text

    with obs.span("bench.ledger", probe="hash"):
        seconds = sum(timed(hash_file, path)[0] for path in documents)
    total = sum(os.path.getsize(path) for path in documents)
    text = output.read_text(encoding="utf-8")
    directory = scratch / "ledger"
    directory.mkdir()
    records, fetches = [], []
    with Ledger(directory / "ledger.jsonl") as ledger:
        keys = [("g", "w", "l", f"input-{index}") for index in range(count)]
        with obs.span("bench.ledger", probe="record"):
            for index, key in enumerate(keys):
                # A distinct output per entry, so every record also
                # stores its result bytes (identical outputs share one
                # content-addressed blob).
                variant = f"{text}<!--{index}-->"
                records.append(timed(
                    ledger.record, op="prune", grammar_fp=key[0],
                    workload_fp=key[1], limits_fp=key[2], input_hash=key[3],
                    output_hash=hash_text(variant),
                    result={"kind": "prune", "text": variant},
                )[0])
        with obs.span("bench.ledger", probe="fetch"):
            fetches = [timed(ledger.fetch, key)[0] for key in keys]
    shutil.rmtree(directory)
    return {
        "ledger.hash_mb_per_s": total / MB / seconds,
        "ledger.record_ms_p50": 1000.0 * benchstats.median(records),
        "ledger.fetch_ms_p50": 1000.0 * benchstats.median(fetches),
    }


def _protocol_layers(inputs: LayerInputs, count: int = 10) -> dict[str, float]:
    """Frame encode/decode of the workload's request (prune with its
    queries, or extract with its spec) carrying one document inline."""
    from repro import obs
    from repro.service.protocol import decode_frame, encode_frame

    with open(inputs.documents[0], "r", encoding="utf-8") as handle:
        markup = handle.read()
    frame: dict[str, Any] = {
        "id": 1, "grammar": {"xmark": True}, "source": markup,
    }
    if inputs.spec is not None:
        frame.update(op="extract", spec=inputs.spec.to_wire())
    else:
        frame.update(op="prune", queries=list(inputs.queries))
    with obs.span("bench.protocol", probe="encode"):
        encodes = [timed(encode_frame, frame)[0] for _ in range(count)]
    body = encode_frame(frame)[4:]
    with obs.span("bench.protocol", probe="decode"):
        decodes = [timed(decode_frame, body)[0] for _ in range(count)]
    return {
        "protocol.encode_ms_p50": 1000.0 * benchstats.median(encodes),
        "protocol.decode_ms_p50": 1000.0 * benchstats.median(decodes),
    }


def _parallel_layers(inputs: LayerInputs, scratch: Path,
                     checker: Checker) -> dict[str, float]:
    """``prune_many`` serial and with two workers, against the sum of
    in-process facade prunes of the same documents."""
    import repro
    from repro import obs

    grammar, documents, projector = inputs.grammar, inputs.documents, inputs.projector
    out_dir = scratch / "batch"
    sink = scratch / "facade.xml"
    with obs.span("bench.parallel", probe="facade_sum"):
        facade = sum(
            timed(repro.prune, path, grammar, projector, out=str(sink))[0]
            for path in documents
        )
    sink.unlink()
    walls, respawns = {}, 0
    for jobs in (1, 2):
        shutil.rmtree(out_dir, ignore_errors=True)
        with obs.span("bench.parallel", probe=f"jobs{jobs}"):
            walls[jobs], batch = timed(
                repro.prune_many, documents, grammar, projector,
                jobs=jobs, out_dir=str(out_dir),
            )
        respawns += batch.respawns
        for path, result in zip(documents, batch.results):
            checker.check(
                result is not None
                and sha256_file(result.output_path) == inputs.references[path],
                f"prune_many(jobs={jobs}) output of {os.path.basename(path)} "
                f"differs from the event pipeline",
            )
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "parallel.jobs1_docs_per_s": len(documents) / walls[1],
        "parallel.speedup_jobs2": walls[1] / walls[2],
        "parallel.dispatch_overhead_s": walls[1] - facade,
        "parallel.respawns": respawns,
    }


def _extract_layers(grammar: Any, documents: list[str]) -> dict[str, float]:
    """The person-directory extraction over the workload's documents, and
    the share of it spent assembling records rather than scanning (the
    same scan, pruning with the spec's projector, is the base)."""
    import repro
    from repro import obs
    from repro.core.cache import resolve_spec_projector

    spec = person_spec()
    projector = resolve_spec_projector(grammar, spec)
    rows = fields = nulls = 0
    extract_seconds = prune_seconds = 0.0
    with obs.span("bench.extract", probe="person_spec"):
        for path in documents:
            seconds, result = timed(repro.extract, path, grammar, spec)
            extract_seconds += seconds
            rows += result.stats.rows_out
            fields += result.stats.fields_out
            nulls += result.stats.nulls_out
            prune_seconds += timed(repro.prune, path, grammar, projector)[0]
    return {
        "extract.rows_out": rows,
        "extract.fields_out": fields,
        "extract.nulls_out": nulls,
        "extract.assembly_share": (extract_seconds - prune_seconds) / extract_seconds,
    }
