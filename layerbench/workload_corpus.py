"""corpus-prune and corpus-extract: a corpus of small XMark documents
through ``repro.prune_many`` / ``repro.extract_many`` with two workers.

At ~140 KB a document, per-document fixed costs weigh: pool start-up
and dispatch, pickling the pruner, opening files and merging stats.  The
two workloads share the scan and differ in its consumer (the markup
writer vs the record assembler), so a change to the shared pipeline has
to hold on both.  Each timed operation is one batch call over the next
slice of the corpus (the slices taken in turn), writing one output file
per document; a first call over another slice's worth of documents is
the warm-up.  A call runs in the workers, so its slowdown is sampled on
both CPUs while it runs (see ``calibration.py``).
"""

from __future__ import annotations

import itertools
import os
import shutil
from pathlib import Path

from benchenv import (
    MB, PERSON_ROWS, SETUP_PROBES, Checker, generate_documents, operation_metrics,
    peak_rss_mb, person_spec, selective_queries, setup_seconds, sha256_file,
    sha256_text, time_operations,
)
from calibration import ELASTICITY, Calibration, Timings, pinned
from layer_probes import LayerInputs, references

DOCUMENTS = 50
SLICE = 10
FACTOR = 0.002
SMOKE_DOCUMENTS = 6
SMOKE_SLICE = 3
SMOKE_FACTOR = 0.001
JOBS = 2
#: The per-layer probes run on the first slice only, to keep a traced
#: run short.
PROBE_DOCUMENTS = SLICE


class CorpusWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path) -> None:
        import repro
        from repro.workloads.xmark import xmark_grammar

        self.name, self.seed, self.smoke, self.scratch = name, seed, smoke, scratch
        self.extracting = name == "corpus-extract"
        self.grammar = xmark_grammar()
        self.slice = SMOKE_SLICE if smoke else SLICE
        corpus = scratch / "corpus"
        corpus.mkdir()
        # The corpus plus, last, one slice for the warm-up call.
        documents = generate_documents(
            corpus, (SMOKE_DOCUMENTS if smoke else DOCUMENTS) + self.slice,
            SMOKE_FACTOR if smoke else FACTOR, seed,
        )
        self.documents, self.warm_up = documents[:-self.slice], documents[-self.slice:]
        self.out_dir = scratch / "out"
        self.queries = selective_queries()
        self.spec = person_spec()
        if self.extracting:
            from repro.core.cache import resolve_spec_projector

            self.projector = resolve_spec_projector(self.grammar, self.spec)
        else:
            self.projector = repro.analyze(self.grammar, self.queries).projector

    def batch(self, documents: list[str], out_dir: Path):
        """One batch call over ``documents``, writing into ``out_dir``."""
        import repro

        if self.extracting:
            return repro.extract_many(documents, self.grammar, self.spec,
                                      jobs=JOBS, out_dir=str(out_dir))
        return repro.prune_many(documents, self.grammar, self.queries,
                                jobs=JOBS, out_dir=str(out_dir))

    def expected(self) -> dict[str, str]:
        """Per-document digest of the in-process facade's output."""
        import repro

        digests = {}
        for path in self.documents:
            if self.extracting:
                text = repro.extract(path, self.grammar, self.spec).text
            else:
                text = repro.prune(path, self.grammar, self.projector).text
            digests[path] = sha256_text(text)
        return digests

    def measure(self, seconds: float, checker: Checker) -> tuple[dict, dict]:
        expected = self.expected()
        calibration = Calibration()
        if self.extracting:
            kind, payload = "spec", {"rows": PERSON_ROWS, "fields": dict(self.spec.fields)}
        else:
            kind, payload = "queries", self.queries
        setup = Timings(calibration, ELASTICITY[self.name]["setup"])
        with pinned({min(os.sched_getaffinity(0))}):
            setup_seconds(kind, payload, 1 if self.smoke else SETUP_PROBES, setup)

        slices = [self.documents[start:start + self.slice]
                  for start in range(0, len(self.documents), self.slice)]
        turn = itertools.cycle(slices)

        def call(index: int, _timings: Timings):
            documents = next(turn)
            return documents, self.batch(documents, self.out_dir / str(index))

        self.batch(self.warm_up, self.out_dir / "warm-up")
        calls = Timings(calibration, ELASTICITY[self.name]["operation"], sampled=True)
        outcomes = time_operations(call, seconds, 3, calls, checker)
        for documents, batch in outcomes:
            for error in batch.errors:
                checker.fail_one(f"{error.source}: {error.kind}: {error.message}")
            for path, result in zip(documents, batch.results):
                if result is not None:
                    checker.check(
                        sha256_file(result.output_path) == expected[path],
                        f"{os.path.basename(path)} differs from the facade result",
                    )
        shutil.rmtree(self.out_dir)
        megabytes = [sum(os.path.getsize(path) for path in documents) / MB
                     for documents, _ in outcomes]
        metrics, detail = operation_metrics(megabytes, calls, setup, peak_rss_mb())
        detail.update(documents=len(self.documents), slices=len(slices))
        return metrics, detail

    def layer_inputs(self) -> LayerInputs:
        import repro

        documents = self.documents[:PROBE_DOCUMENTS]
        refs = references(self.grammar, documents, self.projector, self.scratch)
        out = str(self.scratch / "operation.out")

        def operation() -> None:
            for path in documents:
                if self.extracting:
                    repro.extract(path, self.grammar, self.spec, out=out)
                else:
                    repro.prune(path, self.grammar, self.projector, out=out)

        return LayerInputs(
            grammar=self.grammar, documents=documents,
            projector=self.projector,
            queries=None if self.extracting else self.queries,
            spec=self.spec if self.extracting else None,
            operation=operation, seed=self.seed, references=refs,
        )
