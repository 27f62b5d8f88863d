"""Tests for the layer benchmark.  Not part of the tier-1 suite; run by
explicit path from the checkout root:

    PYTHONPATH=src python -m pytest layerbench/test_bench_layers.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import benchstats  # noqa: E402
import compare  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]
SMOKE_BUDGET_S = 90


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CATALOGUE["command"], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_smoke_runs_emit_exactly_the_catalogue():
    started = time.perf_counter()
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench(workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            units = {entry["name"]: entry["unit"] for entry in CATALOGUE[section]}
            assert {name: metric["unit"]
                    for name, metric in result["metrics"].items()} == units
            printed = {tuple(line.split()[:2]): line.split()[3]
                       for line in lines[:-1] if len(line.split()) == 4}
            for name, unit in units.items():
                assert printed[(workload, name)] == unit
    assert time.perf_counter() - started < SMOKE_BUDGET_S


def test_corrupted_reference_counts_as_failed_operations(monkeypatch):
    import benchenv

    benchenv.require_checkout()
    import bench_layers
    import workload_docs

    monkeypatch.setattr(
        workload_docs, "references",
        lambda grammar, documents, projector, scratch:
            {path: "0" * 64 for path in documents},
    )
    report = bench_layers.run_workload("doc-selective", 3, 0.2, False, smoke=True)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0

    run = {"workload": "doc-selective", "seed": 3, "trace": 0, "result": result}
    clean = json.loads(json.dumps(run))
    clean["result"]["failed"] = 0
    rows = compare.compare([clean], [run], CATALOGUE)
    assert rows["doc-selective"]["error_rate"]["verdict"] == "regressed"


def _samples(centre: float, jitter: float, count: int = 10) -> list[tuple[int, float]]:
    # Deterministic spread: evenly spaced offsets in [-jitter, +jitter].
    return [(seed, centre * (1 + jitter * (2 * seed / (count - 1) - 1)))
            for seed in range(count)]


def test_compare_verdicts_on_synthetic_samples():
    bound = {entry["name"]: entry["bound"]
             for entry in CATALOGUE["end_to_end"]}["mb_per_s"]
    parent = _samples(100.0, 0.005)

    def judged(change):
        return compare.verdict(parent, change, "higher", bound)["verdict"]

    assert judged(_samples(100.0 * (1 + 3 * bound), 0.005)) == "improved"
    assert judged([(seed, value * 1.001) for seed, value in _samples(100.0, 0.004)]) \
        == "no-regression"
    assert compare.verdict(_samples(100.0, 2 * bound), _samples(100.0, 2 * bound),
                           "higher", bound)["verdict"] == "unresolved"
    assert judged(_samples(100.0 * (1 - 3 * bound), 0.005)) == "regressed"
    # Direction matters: for a lower-is-better metric the same drop is a gain.
    assert compare.verdict(parent, _samples(100.0 * (1 - 3 * bound), 0.005),
                           "lower", bound)["verdict"] == "improved"


def test_fit_recovers_the_elasticity_of_synthetic_runs():
    import fit_elasticity

    # Each run does the same work (one second at the reference speed)
    # at its own slowdown; the work slows down as slowdown ** 0.8.
    runs = []
    for workload, elasticity in (("a", 0.8), ("b", 1.1)):
        for index, slowdown in enumerate((0.9, 1.0, 1.3, 1.6, 2.0, 1.1)):
            operation = [[0.5 * slowdown ** elasticity, slowdown]] * 2
            setup = [[0.1 * slowdown ** 0.6, slowdown]]
            runs.append({"workload": workload, "seed": index, "trace": 0,
                         "detail": {"operations": [operation], "setups": [setup]}})
    fitted, _ = fit_elasticity.fit(runs)
    assert fitted == {"a": {"operation": 0.8, "setup": 0.6},
                      "b": {"operation": 1.1, "setup": 0.6}}
    mine = [run for run in runs if run["workload"] == "a"]
    assert fit_elasticity.spread(mine, "operations", 0.8) < 1e-9
    assert fit_elasticity.spread(mine, "operations", 1.0) > 0.05


def test_tail_needs_ten_samples_beyond_it():
    assert benchstats.tail(list(range(10))) is None
    assert benchstats.tail(list(range(200)))["percentile"] == 95
    assert benchstats.tail(list(range(240)))["percentile"] == 95
    assert benchstats.tail(list(range(100)))["percentile"] == 90
    assert benchstats.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0


def test_importing_the_runner_runs_nothing():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'layerbench'); import bench_layers"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_benchmark_alone_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    done = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
