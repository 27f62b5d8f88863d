"""Where the layer benchmark runs: checkout paths, scratch space, inputs,
failure accounting, set-up probes and the timed-operation loop.

Everything the benchmark reads or writes stays inside the checkout: the
package comes from ``<checkout>/src`` and the shared benchmark helpers
from ``<checkout>/benchmarks`` (both imported, never copied); scratch
files live under ``layerbench/.work`` (removed when a run ends) and
reports and traces under ``layerbench/out``.

Module-level imports are stdlib only, so the runner can refuse cleanly
(:func:`require_checkout`) before anything from the checkout is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from calibration import Timings

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
OUT_DIR = BENCH_DIR / "out"
WORK_ROOT = BENCH_DIR / ".work"
CATALOGUE = ROOT / "BENCHMARK.json"

#: The rows of ``bench_extract.py``'s person directory.
PERSON_ROWS = "/site/people/person"

MB = 1e6

#: Fresh set-up processes per run of a document or corpus workload; the
#: median is reported.
SETUP_PROBES = 7


def require_checkout() -> None:
    """Put this checkout's ``src`` and ``benchmarks`` first on the import
    path, or exit with an error when either is missing (the benchmark
    directory on its own cannot run) or another copy of ``repro`` would
    be imported instead."""
    package = SRC / "repro" / "__init__.py"
    for needed in (package, BENCHMARKS / "_stats.py"):
        if not needed.is_file():
            raise SystemExit(f"error: {needed} not found; run the benchmark "
                             f"from the root of a full checkout")
    for directory in (BENCHMARKS, SRC):
        if str(directory) not in sys.path:
            sys.path.insert(0, str(directory))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def selective_queries() -> list[str]:
    """The scale sweep's headline workload (``BENCH_scale_trajectory.jsonl``):
    a 10-name projector that keeps a few percent of an XMark document."""
    from scale_sweep import QUERIES

    return list(QUERIES)


def person_spec():
    """The person-directory extraction of ``bench_extract.py``."""
    import repro
    from bench_extract import PERSON_SPEC_FIELDS

    return repro.ExtractSpec(rows=PERSON_ROWS, fields=PERSON_SPEC_FIELDS)


def checkout_env() -> dict[str, str]:
    """Environment for child processes that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_catalogue() -> dict[str, Any]:
    with open(CATALOGUE, encoding="utf-8") as handle:
        return json.load(handle)


class Scratch:
    """A per-run scratch directory under ``layerbench/.work``."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        if self.path.exists():
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no other run is active
        except OSError:
            pass


class Checker:
    """Counts checked operations; a mismatch or exception is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def fail_one(self, message: str) -> None:
        """An operation that failed before anything could be checked."""
        self.check(False, message)


def sha256_file(path: "str | os.PathLike[str]") -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError(f"no VmHWM line for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set
    (``clear_refs`` value 5), so the peak covers only what runs next."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def generate_documents(directory: Path, count: int, factor: float,
                       seed: int) -> list[str]:
    """``count`` XMark documents, each from its own seed derived from
    ``seed``; returns their paths."""
    from repro.workloads.xmark.generator import generate_file

    paths = []
    for index in range(count):
        path = directory / f"xmark{index:04d}.xml"
        generate_file(str(path), factor, seed=seed * 1000 + index)
        paths.append(str(path))
    return paths


def setup_seconds(kind: str, payload: Any, repeats: int,
                  timings: Timings) -> None:
    """Time ``repeats`` fresh set-up processes (see ``setup_probe.py``:
    from the first ``import repro`` to a compiled prune table, in segments
    the child calibrated) into ``timings``."""
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), kind,
               json.dumps(payload)]
    for _ in range(repeats):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        segments = json.loads(done.stdout.strip().splitlines()[-1])
        timings.add([(seconds, slowdown) for seconds, slowdown in segments])


def time_operations(operation: Callable[[int, Timings], Any], seconds: float,
                    minimum: int, timings: Timings,
                    checker: Checker) -> list[Any]:
    """Call ``operation(index, timings)`` back to back until ``seconds``
    have passed and at least ``minimum`` times, never starting a call that
    the last one's duration says would end past the deadline.  Returns
    each successful call's result for checking afterwards; a call that
    raises is a failed operation and leaves no timing."""
    results = []
    started = time.perf_counter()
    last = 0.0
    index = 0
    while index < minimum or time.perf_counter() + last <= started + seconds:
        begun = time.perf_counter()
        try:
            results.append(timings.call(operation, index, timings))
        except Exception as exc:  # a refusal or crash is a failed operation
            checker.fail_one(f"{type(exc).__name__}: {exc}")
        last = time.perf_counter() - begun
        index += 1
    return results


def operation_metrics(megabytes: list[float], operations: Timings, setup: Timings,
                      rss_mb: float) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics from calibrated timings: the median set-up,
    the median operation time, the megabytes the operations handled over
    their summed time (``megabytes`` holds one entry per timed
    operation) and the peak RSS.  The detail keeps the same metrics
    uncalibrated and every segment, which ``fit_elasticity.py`` reads."""
    from benchstats import median

    if len(megabytes) != len(operations.operations):
        raise ValueError("one megabyte count per timed operation expected")

    def metrics(operation_s: list[float], setup_s: list[float]) -> dict[str, float]:
        return {
            "setup_s": median(setup_s),
            "mb_per_s": sum(megabytes) / sum(operation_s),
            "latency_p50_ms": 1000.0 * median(operation_s),
            "peak_rss_mb": rss_mb,
        }

    detail = {
        "uncalibrated": metrics(operations.raw, setup.raw),
        "operation_megabytes": megabytes,
        "slowdown_median": median([slowdown for segments in operations.operations
                                   for _, slowdown in segments]),
        "operations": operations.operations,
        "setups": setup.operations,
    }
    return metrics(operations.calibrated, setup.calibrated), detail
