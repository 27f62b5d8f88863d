"""doc-selective and doc-keep-most: one XMark factor-0.25 document
(~18 MB) pruned file to file with ``repro.prune``.

The two workloads share the document and differ only in the projector,
so they pull the fused scan in opposite directions:

* **doc-selective** — the scale sweep's headline workload (the same
  queries and factor as ``BENCH_scale_trajectory.jsonl``; 10 names, a few
  percent of the bytes kept): the subtree-skip loop does most of the work;
* **doc-keep-most** — the union of XMark QM01-QM20 (the paper's §4.4
  "bunch of queries, one pruning"; ~110 names, ~98 % of the bytes kept):
  text runs, attribute rendering, escaping and sink writes do the work.

A change to the skip loop should move the first and not the second; a
change to the emit path the other way round.

One prune takes seconds, far longer than the host keeps one speed, so
the document reaches ``repro.prune`` through :class:`SegmentedSource`,
the opened file with a calibration split every :data:`SEGMENT_BYTES` of
input (see ``calibration.py``).  The reference output comes from the
event pipeline, once per run, before the timed prunes; the peak RSS
counter is reset after it, so ``peak_rss_mb`` is the fused prunes' own
peak.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO

from benchenv import (
    MB, SETUP_PROBES, Checker, operation_metrics, peak_rss_mb, reset_peak_rss,
    selective_queries, setup_seconds, sha256_file, time_operations,
)
from calibration import ELASTICITY, Calibration, Timings, pinned
from layer_probes import LayerInputs, references

FACTOR = 0.25
#: The traced run probes every layer on a smaller document of the same
#: seed: at factor 0.25 the probes alone would take minutes.
PROBE_FACTOR = 0.05
SMOKE_FACTOR = 0.001
#: A calibration split every this many bytes of input, which is every
#: read of the pruner's 64 KB chunks: 15-40 ms of pruning, as short as
#: the host's typical slow spell.  Splits every 512 KB spread the
#: calibrated prune times three times wider.
SEGMENT_BYTES = 1 << 16


def workload_queries(name: str) -> list[str]:
    if name == "doc-selective":
        return selective_queries()
    from repro.workloads.xmark.queries import XMARK_QUERIES

    return [XMARK_QUERIES[key] for key in sorted(XMARK_QUERIES)]


class SegmentedSource:
    """An opened text file that ends a timing segment every
    :data:`SEGMENT_BYTES` read; ``tell``/``seek`` pass through, so the
    facade treats it as it treats the file it opens for a path."""

    def __init__(self, handle: IO[str], timings: Timings) -> None:
        self.handle = handle
        self.timings = timings
        self.pending = 0

    def read(self, size: int = -1) -> str:
        text = self.handle.read(size)
        self.pending += len(text)
        if self.pending >= SEGMENT_BYTES:
            self.pending = 0
            self.timings.split()
        return text

    def tell(self) -> int:
        return self.handle.tell()

    def seek(self, offset: int, whence: int = 0) -> int:
        return self.handle.seek(offset, whence)


class DocWorkload:
    def __init__(self, name: str, seed: int, smoke: bool, scratch: Path) -> None:
        import repro
        from repro.workloads.xmark import xmark_grammar

        self.name, self.seed, self.smoke, self.scratch = name, seed, smoke, scratch
        self.queries = workload_queries(name)
        self.grammar = xmark_grammar()
        self.projector = repro.analyze(self.grammar, self.queries).projector

    def _document(self, factor: float, label: str = "document") -> str:
        from repro.workloads.xmark.generator import generate_file

        path = str(self.scratch / f"{label}.xml")
        generate_file(path, SMOKE_FACTOR if self.smoke else factor, seed=self.seed)
        return path

    def measure(self, seconds: float, checker: Checker) -> tuple[dict, dict]:
        import repro

        document = self._document(FACTOR)
        warm_up = self._document(SMOKE_FACTOR, "warm-up")
        calibration = Calibration()

        def prune(index: int, timings: Timings) -> str:
            output = str(self.scratch / f"pruned-{index}.xml")
            with open(document, "r", encoding="utf-8") as handle:
                repro.prune(SegmentedSource(handle, timings), self.grammar,
                            self.projector, out=output)
            return output

        # One CPU for the set-up probes, the prunes and the rounds, so the
        # rounds measure the CPU the work ran on.
        with pinned({min(os.sched_getaffinity(0))}):
            setup = Timings(calibration, ELASTICITY[self.name]["setup"])
            setup_seconds("queries", self.queries, 1 if self.smoke else SETUP_PROBES,
                          setup)
            expected = references(self.grammar, [document], self.projector,
                                  self.scratch)[document]
            repro.prune(warm_up, self.grammar, self.projector,
                        out=str(self.scratch / "warm-up.out"))
            reset_peak_rss()
            prunes = Timings(calibration, ELASTICITY[self.name]["operation"])
            outputs = time_operations(prune, seconds, 1, prunes, checker)
            rss = peak_rss_mb()
        for output in outputs:
            checker.check(sha256_file(output) == expected,
                          "pruned output differs from the event pipeline")
            os.unlink(output)
        size = os.path.getsize(document)
        metrics, detail = operation_metrics([size / MB] * len(prunes.operations),
                                            prunes, setup, rss)
        detail.update(document_bytes=size, projector_names=len(self.projector))
        return metrics, detail

    def layer_inputs(self) -> LayerInputs:
        import repro

        document = self._document(PROBE_FACTOR)
        output = str(self.scratch / "operation.xml")

        def operation() -> None:
            repro.prune(document, self.grammar, self.projector, out=output)

        return LayerInputs(
            grammar=self.grammar, documents=[document],
            projector=self.projector, queries=self.queries, spec=None,
            operation=operation, seed=self.seed,
            references=references(self.grammar, [document], self.projector,
                                  self.scratch),
        )
