"""The repository benchmark: end-to-end and per-layer numbers per workload.

    python3 layerbench/bench_layers.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its
``src`` and the shared bench helpers from its ``benchmarks``.
``BENCHMARK.json`` at the root lists the workloads and metrics.  Each
workload runs in its own process and makes its inputs from ``--seed``:

* ``doc-selective`` / ``doc-keep-most`` — one XMark document pruned file
  to file with a selective / a keep-almost-everything projector;
* ``service-mixed`` — a ``python -m repro serve`` process answering a
  mixed request stream;
* ``corpus-prune`` / ``corpus-extract`` — ``prune_many`` /
  ``extract_many`` over a corpus of small documents with two workers.

``--trace 0`` measures the end-to-end metrics with tracing off for
``--seconds``, every timing calibrated against the host's speed
(``calibration.py``).  ``--trace 1`` instead runs every per-layer probe
under an in-memory tracer (the service layers through a server driven
with the service workload's pool and mix), spends half of ``--seconds``
on the traced-vs-untraced overhead comparison, and writes the trace as
JSONL under ``layerbench/out/traces``.  Either way every output is
checked against a reference; a mismatch, exception or refusal counts as a
failed operation.  The run prints each metric as ``workload metric value
unit``, writes a report under ``layerbench/out/runs`` (what
``compare.py`` and ``fit_elasticity.py`` read), and ends with one JSON
line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--smoke`` shrinks every input and repetition count (for tests; its
numbers are not comparable with full runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchenv  # noqa: E402  (stdlib-only at import)


def build_workload(name: str, seed: int, smoke: bool, scratch: Path):
    """The workload object: ``measure()`` for end-to-end metrics and
    ``layer_inputs()`` for the per-layer probes."""
    if name.startswith("doc-"):
        from workload_docs import DocWorkload

        return DocWorkload(name, seed, smoke, scratch)
    if name == "service-mixed":
        from workload_service import ServiceWorkload

        return ServiceWorkload(seed, smoke, scratch)
    from workload_corpus import CorpusWorkload

    return CorpusWorkload(name, seed, smoke, scratch)


def _service_probe(seed: int, smoke: bool, scratch: Path):
    """The service workload's pool and mix, for the service probe of a
    workload that has no server of its own."""
    from workload_service import ServiceWorkload

    directory = scratch / "service"
    directory.mkdir()
    return ServiceWorkload(seed, smoke, directory)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One run in this process; returns the report (``result`` holds the
    final JSON object)."""
    benchenv.require_checkout()
    from repro import obs

    import benchstats
    import layer_probes
    from calibration import Calibration

    checker = benchenv.Checker()
    report: dict = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
    }
    with benchenv.Scratch(name) as scratch:
        workload = build_workload(name, seed, smoke, scratch)
        if trace:
            inputs = workload.layer_inputs()
            service = workload if name == "service-mixed" else _service_probe(
                seed, smoke, scratch)
            sink = obs.MemorySink()
            calibration = Calibration()
            for _ in range(5):
                calibration.slowdown()
            metrics = {"trace.overhead_pct": layer_probes.tracing_overhead_pct(
                inputs.operation, seconds / 2)}
            with obs.capture(sink):
                metrics.update(layer_probes.run_probes(
                    inputs, scratch, 1 if smoke else 2, checker))
                with obs.span("bench.service", probe="ladder"):
                    service_metrics, detail = service.layer_metrics(checker)
            metrics.update(service_metrics)
            for _ in range(5):
                calibration.slowdown()
            metrics["machine.slowdown"] = benchstats.median(calibration.slowdowns)
            report["trace_file"] = str(_write_trace(name, seed, sink.records))
            report["self_times"] = benchstats.self_times(sink.records)
        else:
            metrics, detail = workload.measure(seconds, checker)
    section = benchenv.load_catalogue()["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    if set(metrics) != set(units):
        raise ValueError(
            f"metric set differs from BENCHMARK.json (missing "
            f"{sorted(set(units) - set(metrics))}, unlisted "
            f"{sorted(set(metrics) - set(units))})")
    report["detail"] = detail
    report["failures"] = checker.messages
    report["result"] = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }
    return report


def _write_trace(name: str, seed: int, records: list) -> Path:
    directory = benchenv.OUT_DIR / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / f"{name}-seed{seed}-{stamp}-{os.getpid()}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return path


def _write_report(report: dict) -> Path:
    directory = benchenv.OUT_DIR / "runs"
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = directory / (f"{report['workload']}-seed{report['seed']}-"
                        f"trace{report['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    catalogue = benchenv.load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in catalogue["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and repetition counts (tests)")
    args = parser.parse_args(argv)

    benchenv.require_checkout()
    started = time.perf_counter()
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    report["wall_seconds"] = time.perf_counter() - started
    from benchstats import environment

    report["environment"] = environment()
    report_path = _write_report(report)

    for name, entry in report["result"]["metrics"].items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for message in report["failures"]:
        print(f"{args.workload} FAILED {message}", file=sys.stderr)
    print(f"{args.workload} report {report_path}")
    print(json.dumps(report["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
