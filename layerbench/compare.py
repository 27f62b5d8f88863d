"""Compare two sets of benchmark runs metric by metric.

    python3 layerbench/compare.py PARENT_RUNS CHANGE_RUNS [--record]

Each argument is a JSONL file written by ``sweep.py`` or a directory of
``bench_layers.py`` reports (``layerbench/out/runs``).  Only untraced
runs are compared.  For every (workload, end-to-end metric) the bound
comes from ``BENCHMARK.json``, and the verdict is one of:

* ``improved`` — the change wins at least 9 in 10 of the pairs (runs
  paired by seed, ties counting for neither) and the medians differ by
  more than the parent's own IQR;
* ``unresolved`` — the run-to-run spread (IQR over median, on either
  side) is wider than the bound, unless every change run reads better
  than every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``no-regression`` — anything else.

Each workload also gets an ``error_rate`` row (failed / attempted
operations); any rise is a regression.  Rows also carry each side's
spread before calibration, when the runs keep it (``sweep.py`` records
do).  When both sets hold traced runs, their per-layer medians are
printed side by side after the verdicts, without a verdict: per-layer
metrics have no bound.  The exit status is 1 when any row regressed.
``--record`` writes
``layerbench/results/BENCH_layers.json`` (both sets' medians and
quartiles, the verdicts, and the per-layer medians of any traced runs in
the change set) and appends the change set's medians to
``layerbench/results/BENCH_layers_trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CATALOGUE = BENCH_DIR.parent / "BENCHMARK.json"
RESULTS = BENCH_DIR / "results"
WIN_SHARE = 0.9


def load_runs(path: "str | Path") -> list[dict]:
    """Run records (``workload``, ``seed``, ``trace``, ``result``) from a
    sweep JSONL file or a directory of runner reports."""
    path = Path(path)
    if path.is_dir():
        return [json.loads(item.read_text(encoding="utf-8"))
                for item in sorted(path.glob("*.json"))]
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(runs: list[dict], workload: str, metric: str) -> list[tuple[int, float]]:
    return sorted(
        (run["seed"], run["result"]["metrics"][metric]["value"])
        for run in runs
        if run["workload"] == workload and not run.get("trace")
        and metric in run["result"]["metrics"]
    )


def _uncalibrated(runs: list[dict], workload: str, metric: str) -> list[float]:
    """The metric as measured before calibration, from runs that keep it
    (``sweep.py`` records); empty when any run lacks it."""
    mine = [run for run in runs if run["workload"] == workload and not run.get("trace")]
    if not all("uncalibrated" in run.get("detail", {}) for run in mine):
        return []
    return [run["detail"]["uncalibrated"][metric] for run in mine]


def verdict(parent: list[tuple[int, float]], change: list[tuple[int, float]],
            better: str, bound: float) -> dict:
    """One comparison row; ``parent``/``change`` are ``(seed, value)``."""
    sign = 1.0 if better == "higher" else -1.0
    before = [value for _, value in parent]
    after = [value for _, value in change]
    by_seed = dict(parent)
    pairs = ([(by_seed[seed], value) for seed, value in change if seed in by_seed]
             or list(zip(before, after)))
    won = sum(1 for old, new in pairs if sign * (new - old) > 0)
    p_q1, p_mid, p_q3 = benchstats.quartiles(before)
    c_q1, c_mid, c_q3 = benchstats.quartiles(after)
    worse_share = sign * (p_mid - c_mid) / abs(p_mid) if p_mid else 0.0
    spread = max(benchstats.spread(before), benchstats.spread(after))
    all_better = all(sign * (new - old) > 0 for new in after for old in before)
    clear_gain = (won >= WIN_SHARE * len(pairs)
                  and sign * (c_mid - p_mid) > p_q3 - p_q1)
    if clear_gain and (spread <= bound or all_better):
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_share > bound:
        outcome = "regressed"
    else:
        outcome = "no-regression"
    return {
        "parent": {"median": p_mid, "q1": p_q1, "q3": p_q3, "n": len(before)},
        "change": {"median": c_mid, "q1": c_q1, "q3": c_q3, "n": len(after)},
        "pairs": len(pairs), "won": won, "worse_share": worse_share,
        "spread": spread, "bound": bound, "verdict": outcome,
    }


def error_rate(runs: list[dict], workload: str) -> float:
    mine = [run["result"] for run in runs
            if run["workload"] == workload and not run.get("trace")]
    attempted = sum(result["attempted"] for result in mine)
    return sum(result["failed"] for result in mine) / attempted if attempted else 0.0


def compare(parent_runs: list[dict], change_runs: list[dict],
            catalogue: dict) -> dict[str, dict[str, dict]]:
    """``{workload: {metric: row}}`` for every workload both sets ran,
    plus an ``error_rate`` row per workload."""
    rows: dict[str, dict[str, dict]] = {}
    workloads = [entry["name"] for entry in catalogue["workloads"]]
    for workload in workloads:
        for entry in catalogue["end_to_end"]:
            parent = _values(parent_runs, workload, entry["name"])
            change = _values(change_runs, workload, entry["name"])
            if parent and change:
                row = verdict(parent, change, entry["better"], entry["bound"])
                raw = [_uncalibrated(runs, workload, entry["name"])
                       for runs in (parent_runs, change_runs)]
                if all(raw):
                    row["uncalibrated_spread"] = {
                        side: benchstats.spread(values)
                        for side, values in zip(("parent", "change"), raw)}
                rows.setdefault(workload, {})[entry["name"]] = row
        if workload in rows:
            before = error_rate(parent_runs, workload)
            after = error_rate(change_runs, workload)
            rows[workload]["error_rate"] = {
                "parent": {"median": before}, "change": {"median": after},
                "verdict": "regressed" if after > before else "no-regression",
            }
    return rows


def format_rows(rows: dict[str, dict[str, dict]]) -> list[str]:
    lines = [f"{'workload':15s} {'metric':15s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'won':>6s}  verdict"]
    for workload, metrics in rows.items():
        for name, row in metrics.items():
            if name == "error_rate":
                lines.append(f"{workload:15s} {name:15s} "
                             f"{row['parent']['median']:34.4g} "
                             f"{row['change']['median']:34.4g} {'':>6s}  "
                             f"{row['verdict']}")
                continue
            p, c = row["parent"], row["change"]
            lines.append(
                f"{workload:15s} {name:15s} "
                f"{p['median']:12.5g} [{p['q1']:9.4g}, {p['q3']:9.4g}] "
                f"{c['median']:12.5g} [{c['q1']:9.4g}, {c['q3']:9.4g}] "
                f"{row['won']:>2d}/{row['pairs']:<3d}  {row['verdict']}"
            )
    return lines


def layer_medians(runs: list[dict], catalogue: dict) -> dict[str, dict[str, float]]:
    """``{workload: {per-layer metric: median}}`` over the traced runs."""
    medians: dict[str, dict[str, float]] = {}
    for workload in sorted({run["workload"] for run in runs if run.get("trace")}):
        for entry in catalogue["per_layer"]:
            values = [run["result"]["metrics"][entry["name"]]["value"]
                      for run in runs
                      if run["workload"] == workload and run.get("trace")]
            medians.setdefault(workload, {})[entry["name"]] = benchstats.median(values)
    return medians


def format_layers(parent: dict[str, dict[str, float]],
                  change: dict[str, dict[str, float]]) -> list[str]:
    lines = [f"{'workload':15s} {'per-layer metric':30s} {'parent median':>14s} "
             f"{'change median':>14s}"]
    for workload in sorted(set(parent) & set(change)):
        for name, before in parent[workload].items():
            lines.append(f"{workload:15s} {name:30s} {before:14.5g} "
                         f"{change[workload][name]:14.5g}")
    return lines


def record(rows: dict, change_runs: list[dict], catalogue: dict) -> None:
    """Write the baseline report and extend the trajectory."""
    environment = benchstats.environment(run_seconds=catalogue["run_seconds"])
    per_layer = layer_medians(change_runs, catalogue)
    RESULTS.mkdir(exist_ok=True)
    report = {"environment": environment, "end_to_end": rows,
              "per_layer": per_layer}
    (RESULTS / "BENCH_layers.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    medians = {
        workload: {name: row["change"]["median"] for name, row in metrics.items()}
        for workload, metrics in rows.items()
    }
    with open(RESULTS / "BENCH_layers_trajectory.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"commit": environment["commit"],
                                 "timestamp": environment["timestamp"],
                                 "medians": medians}, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent runs: sweep JSONL or report directory")
    parser.add_argument("change", help="change runs: sweep JSONL or report directory")
    parser.add_argument("--record", action="store_true",
                        help="write the baseline report and trajectory line")
    args = parser.parse_args(argv)

    with open(CATALOGUE, encoding="utf-8") as handle:
        catalogue = json.load(handle)
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    rows = compare(parent_runs, change_runs, catalogue)
    for line in format_rows(rows):
        print(line)
    parent_layers = layer_medians(parent_runs, catalogue)
    change_layers = layer_medians(change_runs, catalogue)
    if set(parent_layers) & set(change_layers):
        print()
        for line in format_layers(parent_layers, change_layers):
            print(line)
    if args.record:
        record(rows, change_runs, catalogue)
    regressed = any(row["verdict"] == "regressed"
                    for metrics in rows.values() for row in metrics.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
