"""Fit the calibration elasticities from recorded runs.

    python3 layerbench/fit_elasticity.py RUNS.jsonl [RUNS.jsonl ...]

Reads untraced runs written by ``sweep.py``; each keeps every timed
operation and set-up as ``(seconds, slowdown)`` segments (see
``calibration.py``).  For each workload and each candidate elasticity it
recomputes every run's median operation time and median set-up time and
prints their spread across the workload's runs (IQR over median).  The
runs of one workload do the same work at whatever speed the host had, so
the elasticity whose calibrated medians spread least is the one the
measurements support.  The last line is the fitted table, in the form
``calibration.ELASTICITY`` takes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402
from calibration import calibrate  # noqa: E402

CANDIDATES = [round(0.5 + 0.05 * step, 2) for step in range(21)]  # 0.50-1.50
KINDS = {"operation": "operations", "setup": "setups"}


def spread(runs: list[dict], key: str, elasticity: float) -> float:
    """The spread of the runs' calibrated medians of ``detail[key]``."""
    return benchstats.spread([
        benchstats.median([calibrate(segments, elasticity)
                           for segments in run["detail"][key]])
        for run in runs
    ])


def fit(runs: list[dict]) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Per workload and kind, the candidate with the lowest spread, and
    the tables behind them."""
    fitted: dict[str, dict[str, float]] = {}
    lines = []
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        lines.append(f"{workload} ({len(mine)} runs): spread of the calibrated "
                     f"run medians (IQR / median)")
        lines.append(f"{'elasticity':>10s} " + " ".join(f"{kind:>10s}" for kind in KINDS))
        table = {kind: {elasticity: spread(mine, key, elasticity)
                        for elasticity in [0.0] + CANDIDATES}
                 for kind, key in KINDS.items()}
        for elasticity in [0.0] + CANDIDATES:
            lines.append(f"{elasticity:10.2f} " + " ".join(
                f"{100 * table[kind][elasticity]:9.2f}%" for kind in KINDS))
        fitted[workload] = {kind: min(CANDIDATES, key=table[kind].__getitem__)
                            for kind in KINDS}
        lines.append("")
    return fitted, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", help="sweep.py JSONL files")
    args = parser.parse_args(argv)
    runs = []
    for path in args.runs:
        with open(path, encoding="utf-8") as handle:
            runs.extend(json.loads(line) for line in handle if line.strip())
    runs = [run for run in runs if not run["trace"]]
    fitted, lines = fit(runs)
    print(f"{len(runs)} untraced runs from {', '.join(args.runs)}\n")
    print("\n".join(lines))
    print(f"ELASTICITY = {json.dumps(fitted, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
