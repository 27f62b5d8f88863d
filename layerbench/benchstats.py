"""Statistics for the layer benchmark: tails, spreads, self time.

Quantiles, timing and provenance come from the repository's
``benchmarks/_stats.py`` (imported from the checkout, like ``repro``
itself), so this benchmark and the older benches cut percentiles the same
way.  Added here:

* :func:`tail` never reports a percentile the sample cannot support: it
  returns the highest whole percentile with at least ten samples beyond
  it, its value and the sample count, or ``None`` below eleven samples.
* :func:`iqr` and :func:`quartiles` use ``statistics.quantiles(values,
  n=4)`` exactly as it is called with its defaults, which is how run-to-run
  spreads are judged.
* :func:`self_times` turns trace span records into per-name self time.
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

_BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

from _stats import environment, median, percentile, time_call  # noqa: E402,F401

#: How many samples must lie beyond a reported tail percentile.
TAIL_MARGIN = 10


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[float, Any]:
    """``time_call`` for a call with arguments: ``(seconds, result)``."""
    return time_call(lambda: fn(*args, **kwargs))


def tail(samples: Sequence[float]) -> dict[str, float] | None:
    """The highest whole percentile with at least :data:`TAIL_MARGIN`
    samples beyond it: ``{"percentile": p, "value": v, "n": n}``, or
    ``None`` when fewer than ``TAIL_MARGIN + 1`` samples exist."""
    n = len(samples)
    if n <= TAIL_MARGIN:
        return None
    # n * (1 - p/100) >= margin; the epsilon keeps exact cases (n = 200
    # -> p95) from rounding down through floating-point error.
    p = math.floor(100.0 * (1.0 - TAIL_MARGIN / n) + 1e-9)
    return {"percentile": p, "value": percentile(samples, p / 100.0), "n": n}


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(samples, n=4)``
    gives them; a single sample is its own quartiles."""
    if len(samples) == 1:
        value = float(samples[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def iqr(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile."""
    q1, _, q3 = quartiles(samples)
    return q3 - q1


def spread(samples: Sequence[float]) -> float:
    """IQR as a share of the median (0 when the median is 0)."""
    _, mid, _ = quartiles(samples)
    return iqr(samples) / abs(mid) if mid else 0.0


def self_times(records: Iterable[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the time its direct children
    cover.  Children are the spans one level deeper whose start lies
    inside the parent's interval (the tracer keeps one stack, so children
    never overlap each other).
    """
    spans = sorted(
        (r for r in records if r.get("type") == "span"),
        key=lambda r: (r["start"], r["depth"]),
    )
    totals: dict[str, dict[str, float]] = {}
    open_spans: list[dict[str, Any]] = []
    covered: dict[int, float] = {}
    for span in spans:
        while open_spans and (
            open_spans[-1]["depth"] >= span["depth"]
            or span["start"] > open_spans[-1]["start"] + open_spans[-1]["seconds"]
        ):
            open_spans.pop()
        if open_spans and open_spans[-1]["depth"] == span["depth"] - 1:
            parent = id(open_spans[-1])
            covered[parent] = covered.get(parent, 0.0) + span["seconds"]
        open_spans.append(span)
    for span in spans:
        entry = totals.setdefault(
            span["name"], {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        entry["calls"] += 1
        entry["seconds"] += span["seconds"]
        entry["self_seconds"] += span["seconds"] - covered.get(id(span), 0.0)
    return totals
