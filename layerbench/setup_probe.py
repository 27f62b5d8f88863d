"""Child process that times one cold set-up, calibrated.

    python3 layerbench/setup_probe.py queries '["//person/name"]'
    python3 layerbench/setup_probe.py spec '{"rows": ..., "fields": {...}}'

The clock starts before the first ``import repro`` and stops once the
workload's prune table is compiled: package import, XMark grammar load,
projector analysis (queries, or an extract spec's union projector) and
``FastPruner`` construction.  Interpreter start-up is not included.  The
set-up is cut into those four segments with a calibration round between
them (see ``calibration.py``), and the output line is the JSON list of
``[seconds, slowdown]`` segments.  The layer benchmark runs several of
these per run and reports the median calibrated time as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from calibration import Calibration, Timings


def main(argv: list[str]) -> int:
    kind, payload = argv[1], json.loads(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    calibration = Calibration()
    calibration.slowdown()  # the first round of a process runs cold
    timings = Timings(calibration, elasticity=1.0)

    def setup() -> None:
        import repro
        from repro.projection.fastpath import FastPruner
        from repro.workloads.xmark import xmark_grammar

        timings.split()
        grammar = xmark_grammar()
        timings.split()
        if kind == "queries":
            projector = repro.analyze(grammar, payload).projector
        elif kind == "spec":
            from repro.core.cache import resolve_spec_projector

            spec = repro.ExtractSpec(rows=payload["rows"], fields=payload["fields"])
            projector = resolve_spec_projector(grammar, spec)
        else:
            raise SystemExit(f"unknown probe kind {kind!r}")
        timings.split()
        FastPruner(grammar, projector)

    timings.call(setup)
    print(json.dumps(timings.operations[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
