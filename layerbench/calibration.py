"""Machine-speed calibration of the layer benchmark's timings.

The host the bounds in ``BENCHMARK.json`` were set on is a shared 2-CPU
virtual machine.  Each CPU switches between full speed and down to about
half speed every few milliseconds to seconds, and the share of time spent
slow drifts within minutes.  CPU time moves with wall time, so the CPU
itself runs slower: a slow spell cannot be told apart from slow code by
the clock alone.  Uncalibrated, the end-to-end times of the same work
spread far wider than their bounds between runs: every run keeps its
uncalibrated metrics next to the calibrated ones, and both spreads are
in the committed fit runs (``results/fit_runs.jsonl``) and in every row
of ``results/BENCH_layers.json`` (``uncalibrated_spread``).

So the benchmark measures the host's speed while it times, with a *round*:
a fixed pure-Python loop that uses no ``repro`` code (:func:`_round`).  A
change to ``repro`` moves the timed work and not the rounds, so it shows
in full; a slow spell moves both.  A round's *slowdown* is its time over
its time on the reference host when quiet (``ROUND_REFERENCE_S`` per
element of its text).  Two ways of placing rounds, one per kind of
work:

* **Work in this thread** (a prune, a set-up) is cut into segments of
  15-50 ms, and between two segments a round of :data:`ROUND_ELEMENTS`
  runs on each CPU the process may use, with the clock stopped
  (:class:`Timings` with ``sampled=False``; :meth:`Timings.split`).  A
  segment's slowdown is the mean of the rounds before and after it.
* **Work in other processes** (``prune_many`` workers, the server and
  its workers) cannot be cut, so a background thread of this process
  runs a small round of :data:`SAMPLE_ELEMENTS` on each CPU every
  :data:`SAMPLE_EVERY_S` while it runs (:class:`Sampler`; ``sampled=True``).
  An operation's slowdown is the mean of the rounds run during it; the
  requests of an open loop overlap, so each gets the rounds of its own
  interval (:meth:`Sampler.window`).  Brackets of rounds around such
  operations left twice the per-operation spread, and one mean over a
  whole open loop four times the spread of its median request.

A segment's calibrated time is its measured time divided by its slowdown
raised to an *elasticity*; an operation's is the sum over its segments.
Work that leans on the kernel (file writes, process start-up) slows down
less than the round, and work spread over worker processes that the
sampler's rounds interrupt slows down more, so each workload has its own
elasticities, one for its operations and one for its set-up.  They are
measured, not chosen: ``fit_elasticity.py`` picks, from the ``(seconds,
slowdown)`` segments every run keeps, the exponent whose calibrated run
medians spread least across runs made at different slowdowns
(``results/elasticity_fit.txt``, from the runs in
``results/fit_runs.jsonl``).  ``ROUND_REFERENCE_S`` only sets the scale:
parent and change runs on one host share it.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import threading
import time
from typing import Any, Callable, Iterator

#: A round's time per element of its text on the reference host when
#: quiet (the unit of the calibrated times; see the module docstring).
ROUND_REFERENCE_S = 1.25e-6
ROUND_ELEMENTS = 2000
SAMPLE_ELEMENTS = 200
SAMPLE_EVERY_S = 0.005

#: Per workload, the elasticity of its timed operations and of its
#: set-up, as ``fit_elasticity.py`` printed them
#: (``results/elasticity_fit.txt``).
ELASTICITY = {
    "corpus-extract": {"operation": 0.9, "setup": 0.75},
    "corpus-prune": {"operation": 1.0, "setup": 0.75},
    "doc-keep-most": {"operation": 0.9, "setup": 0.7},
    "doc-selective": {"operation": 0.9, "setup": 0.8},
    "service-mixed": {"operation": 1.2, "setup": 1.25},
}

_TAG = re.compile(r"<([A-Za-z_]+)(?:\s+[a-z]+=\"[^\"]*\")*\s*/?>")


def _round_text(elements: int) -> str:
    rng = random.Random(20061)
    words = [f"w{index}" for index in range(200)]
    pieces = []
    for index in range(elements):
        tag = rng.choice(("item", "name", "text", "bold", "keyword"))
        pieces.append(f'<{tag} id="n{index}">')
        pieces.append(" ".join(rng.choice(words) for _ in range(rng.randrange(3, 12))))
        pieces.append(f"</{tag}>")
    return "".join(pieces)


def _round(text: str) -> int:
    """Tag scanning, dict counting and escaping in plain Python: the kind
    of work the scanner does, with none of its code."""
    counts: dict[str, int] = {}
    kept: list[str] = []
    position = 0
    while True:
        match = _TAG.search(text, position)
        if match is None:
            break
        name = match.group(1)
        counts[name] = counts.get(name, 0) + 1
        end = text.find("<", match.end())
        if name in ("name", "keyword") and end > match.end():
            kept.append(text[match.end():end].replace("&", "&amp;"))
        position = match.end()
    return len("".join(kept)) + sum(counts.values())


def _slowdowns(text: str, reference: float) -> list[float]:
    """One round on each CPU this thread may use, in turn; each CPU's
    round time over ``reference``."""
    previous = os.sched_getaffinity(0)
    slowdowns = []
    try:
        for cpu in sorted(previous):
            os.sched_setaffinity(0, {cpu})
            started = time.perf_counter()
            _round(text)
            slowdowns.append((time.perf_counter() - started) / reference)
    finally:
        os.sched_setaffinity(0, previous)
    return slowdowns


@contextlib.contextmanager
def pinned(cpus: "set[int]") -> Iterator[None]:
    """Run this thread on ``cpus`` only, restoring its CPU set after.
    Threads and child processes started meanwhile inherit the pinning."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class Calibration:
    """The round texts, built once per process; every round's slowdown
    is kept."""

    def __init__(self) -> None:
        self.text = _round_text(ROUND_ELEMENTS)
        self.sample_text = _round_text(SAMPLE_ELEMENTS)
        self.slowdowns: list[float] = []

    def slowdown(self) -> float:
        """One round now on each CPU: their mean slowdown."""
        slowdowns = _slowdowns(self.text, ROUND_REFERENCE_S * ROUND_ELEMENTS)
        self.slowdowns.extend(slowdowns)
        return sum(slowdowns) / len(slowdowns)


class Sampler:
    """While the ``with`` block runs, a background thread runs a small
    round on each CPU every :data:`SAMPLE_EVERY_S` (see the module
    docstring).  The thread waits in between, so it takes the
    interpreter lock only for its rounds.  Each slowdown is kept with
    the time its rounds started."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        reference = ROUND_REFERENCE_S * SAMPLE_ELEMENTS
        while True:
            now = time.perf_counter()
            self.samples.extend(
                (now, slowdown)
                for slowdown in _slowdowns(self.calibration.sample_text, reference))
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join()

    def window(self, start: float, end: float) -> float:
        """The mean slowdown of the rounds started from one sampling
        interval before ``start`` to ``end``, or of the round nearest to
        ``start`` when none did."""
        inside = [slowdown for at, slowdown in self.samples
                  if start - SAMPLE_EVERY_S <= at <= end]
        if not inside:
            inside = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return sum(inside) / len(inside)


class Timings:
    """Operations timed with their slowdowns (see the module docstring).

    With ``sampled=False``, :meth:`call` times one operation as one
    segment between rounds; back-to-back calls share the round between
    them, and a long operation calls :meth:`split` to end a segment
    early.  With ``sampled=True`` the operation runs under a
    :class:`Sampler`.  Each operation is kept as its list of
    ``(seconds, slowdown)`` segments.
    """

    def __init__(self, calibration: Calibration, elasticity: float,
                 sampled: bool = False) -> None:
        self.calibration = calibration
        self.elasticity = elasticity
        self.sampled = sampled
        self.operations: list[list[tuple[float, float]]] = []
        self._segments: list[tuple[float, float]] = []
        self._before: float | None = None
        self._start = 0.0

    def split(self) -> None:
        """End the current segment with a round."""
        end = time.perf_counter()
        after = self.calibration.slowdown()
        self._segments.append((end - self._start, (self._before + after) / 2))
        self._before = after
        self._start = time.perf_counter()

    def call(self, fn: Callable[..., Any], *args: Any,
             reported: Callable[[Any], list[tuple[float, float]]] | None = None
             ) -> Any:
        """Time one call of ``fn`` and return its result.  ``reported``,
        when given, reads the operations to keep from the result instead,
        as ``(start, end)`` ``perf_counter`` readings, each calibrated by
        the rounds of its own interval (requests the load generator
        timed; needs ``sampled=True``).  A call that raises leaves no
        timing."""
        if self.sampled:
            with Sampler(self.calibration) as sampler:
                started = time.perf_counter()
                result = fn(*args)
                ended = time.perf_counter()
            if reported is not None:
                self.operations.extend(
                    [(end - start, sampler.window(start, end))]
                    for start, end in reported(result))
                return result
            self._segments = [(ended - started, sampler.window(started, ended))]
        else:
            if self._before is None:
                self._before = self.calibration.slowdown()
            self._segments = []
            self._start = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                self.split()
        self.operations.append(self._segments)
        return result

    def add(self, segments: list[tuple[float, float]]) -> None:
        """An operation timed elsewhere (a child process that runs its own
        rounds)."""
        self.operations.append(segments)

    @property
    def raw(self) -> list[float]:
        """Each operation's measured time."""
        return [sum(seconds for seconds, _ in segments) for segments in self.operations]

    @property
    def calibrated(self) -> list[float]:
        """Each operation's time at the reference speed."""
        return [calibrate(segments, self.elasticity) for segments in self.operations]


def calibrate(segments: list[tuple[float, float]], elasticity: float) -> float:
    """An operation's calibrated time from its ``(seconds, slowdown)``
    segments."""
    return sum(seconds / slowdown ** elasticity for seconds, slowdown in segments)
