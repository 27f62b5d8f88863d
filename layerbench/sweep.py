"""Run the benchmark over several seeds and report each metric's spread.

    python3 layerbench/sweep.py --seeds 1-10 --out runs.jsonl
    python3 layerbench/sweep.py --workloads doc-selective --seeds 1,2,3 \\
        --trace 1 --out traced.jsonl

Each run is a separate ``BENCHMARK.json`` command invocation from the
checkout root with ``--workload --seed --seconds --trace``.  Runs go
seed by seed across the workloads, so slow drift on the machine spreads
over every workload instead of landing on one.  Each run is appended to
``--out`` as ``{"workload", "seed", "trace", "wall_s", "result",
"detail"}``: the final JSON line and the report's detail (for untraced
runs the uncalibrated metrics and every timed segment, which
``fit_elasticity.py`` reads), with floats cut to six significant digits.
At the end the spread of every end-to-end metric — IQR as a share of the
median — is printed next to its bound, calibrated and uncalibrated; a
calibrated spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchenv  # noqa: E402
import benchstats  # noqa: E402

#: Per-run limit; a run that takes longer is a benchmark failure.
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _compact(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {key: _compact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_compact(item) for item in value]
    return value


def run_once(catalogue: dict, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    command = list(catalogue["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=benchenv.ROOT, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    report_path = next(line.split()[-1] for line in lines
                       if line.startswith(f"{workload} report "))
    with open(report_path, encoding="utf-8") as handle:
        detail = json.load(handle)["detail"]
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "result": json.loads(lines[-1]),
            "detail": _compact(detail)}


def spread_table(runs: list[dict], catalogue: dict) -> list[str]:
    lines = []
    bounds = {entry["name"]: entry["bound"] for entry in catalogue["end_to_end"]}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload
                and run["trace"] == 0]
        if not mine:
            continue
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in mine]
            raw = [run["detail"]["uncalibrated"][name] for run in mine]
            share = benchstats.spread(values)
            flag = "" if share <= bound / 3 else "  <-- above bound/3"
            lines.append(
                f"{workload:15s} {name:15s} median {benchstats.median(values):12.5g}"
                f"  spread {100 * share:6.2f}% (uncalibrated "
                f"{100 * benchstats.spread(raw):6.2f}%)  bound {100 * bound:5.1f}%{flag}"
            )
        walls = [run["wall_s"] for run in mine]
        failed = sum(run["result"]["failed"] for run in mine)
        lines.append(f"{workload:15s} wall max {max(walls):.1f} s, "
                     f"mean {sum(walls) / len(walls):.1f} s, failed ops {failed}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names (default all)")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", required=True, help="JSONL file to append to")
    args = parser.parse_args(argv)

    catalogue = benchenv.load_catalogue()
    names = [entry["name"] for entry in catalogue["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or catalogue["run_seconds"]
    runs = []
    for seed in args.seeds:
        for workload in workloads:
            run = run_once(catalogue, workload, seed, seconds, args.trace)
            runs.append(run)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(run, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s, "
                  f"failed {run['result']['failed']}", flush=True)
    for line in spread_table(runs, catalogue):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
