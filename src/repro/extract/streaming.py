"""Streaming record assembly — extraction fused into the pruning scan.

The paper's Definition 2.7 guarantees pruning is a single bufferless
one-pass traversal; this module rides record emission on that same pass.
The projector inferred from an :class:`~repro.extract.spec.ExtractSpec`
keeps exactly the row spine and the field subtrees, so the pruned event
stream :meth:`~repro.projection.fastpath.FastPruner.events` produces *is*
the tabular workload: :func:`iter_records` folds it into record dicts
with O(row depth + field count) state — no document tree, no second
pass.

Two stages, matching the spec's split:

* **row filter** — a tag stack tracks the absolute path of open kept
  elements; a row opens when the stack equals the row path (exact match,
  so a same-named element elsewhere in the projected stream never
  triggers a row);
* **field supply** — inside a row, each field waits for the *first*
  element matching its row-relative path, then captures its attribute,
  its direct text, or its whole-subtree text, and goes dormant.

The pass itself — the fused scan or, with ``fast=False``, the event
pipeline (``parse_events`` →
:class:`~repro.projection.streaming.StreamingPruner`), sources, sinks and
the ledger — is the run path shared with markup pruning
(:mod:`repro.run`); the record assembler
(:class:`repro.extract.api.RecordAssembler`) is its consumer here.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.extract.spec import ExtractSpec, FieldPath
from repro.extract.stats import ExtractStats
from repro.xmltree.events import Characters, EndElement, Event, StartElement

__all__ = ["iter_records"]

_PENDING, _CAPTURING, _DONE = 0, 1, 2


class _FieldState:
    """Per-row capture state for one field (see module docstring)."""

    __slots__ = ("field", "phase", "depth", "subtree", "parts", "value")

    def __init__(self, field: FieldPath, row_event: StartElement) -> None:
        self.field = field
        self.depth = 0
        self.subtree = False
        self.parts: list[str] | None = None
        self.value: str | None = None
        if field.steps:
            self.phase = _PENDING
        elif field.kind == "attribute":
            # The row element's own attribute resolves immediately.
            self.value = row_event.attributes.get(field.attribute)
            self.phase = _DONE
        else:
            # "text()" on the row element: capture its direct text for
            # the whole row span (finished by the row's end tag).
            self.phase = _CAPTURING
            self.parts = []

    def on_start(self, rel: tuple[str, ...], event: StartElement) -> None:
        if self.phase is not _PENDING or self.field.steps != rel:
            return
        if self.field.kind == "attribute":
            self.value = event.attributes.get(self.field.attribute)
            self.phase = _DONE
        else:
            self.phase = _CAPTURING
            self.depth = len(rel)
            self.subtree = self.field.kind == "value"
            self.parts = []

    def on_text(self, rel_depth: int, text: str) -> None:
        if self.phase is not _CAPTURING:
            return
        if rel_depth == self.depth or (self.subtree and rel_depth > self.depth):
            self.parts.append(text)

    def on_end(self, rel_depth: int) -> None:
        # The captured element closes (depth 0 is the row itself, closed
        # by the row handler via finish()).
        if self.phase is _CAPTURING and self.depth == rel_depth and rel_depth:
            self.value = "".join(self.parts)
            self.phase = _DONE

    def finish(self) -> str | None:
        if self.phase is _DONE:
            return self.value
        if self.phase is _CAPTURING:  # row-level text() capture
            return "".join(self.parts)
        return None


def iter_records(
    events: Iterable[Event], spec: ExtractSpec
) -> Iterator[dict[str, str | None]]:
    """Fold a (pruned) event stream into record dicts, one per row
    element, fields in declared order; a missing field is ``None`` (NULL
    substitution happens in the encoder, not here)."""
    row_steps = list(spec.row_steps())
    row_depth = len(row_steps)
    fields = spec.compiled_fields()
    stack: list[str] = []
    states: list[_FieldState] | None = None
    for event in events:
        if isinstance(event, StartElement):
            stack.append(event.tag)
            if states is None:
                if len(stack) == row_depth and stack == row_steps:
                    states = [_FieldState(field, event) for field in fields]
            else:
                rel = tuple(stack[row_depth:])
                for state in states:
                    state.on_start(rel, event)
        elif isinstance(event, EndElement):
            if states is not None:
                if len(stack) == row_depth:
                    yield {
                        state.field.name: state.finish() for state in states
                    }
                    states = None
                else:
                    rel_depth = len(stack) - row_depth
                    for state in states:
                        state.on_end(rel_depth)
            stack.pop()
        elif isinstance(event, Characters):
            if states is not None:
                rel_depth = len(stack) - row_depth
                for state in states:
                    state.on_text(rel_depth, event.text)


# -- internal pipelines (used by the repro.extract facade) --------------------


def _records_pass(
    events: Iterable[Event],
    spec: ExtractSpec,
    writer,
    stats: ExtractStats,
    collect: "list[dict[str, Any]] | None",
) -> None:
    writer.start()
    width = len(spec.fields)
    for record in iter_records(events, spec):
        row = writer.write(record)
        nulls = sum(1 for value in record.values() if value is None)
        stats.rows_out += 1
        stats.nulls_out += nulls
        stats.fields_out += width - nulls
        if collect is not None:
            collect.append(row)
