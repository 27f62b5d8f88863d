"""Streaming one-pass pruner.

This is the paper's headline operational property (Section 1.2): "a
pruning based on type projectors is equivalent to a single bufferless
one-pass traversal of the parsed document (it simply discards elements not
generated by any of the names in the projector)".

The pruner is an event-stream transformer, so it composes with the
streaming parser and serializer into a constant-memory pipeline::

    parse_events(file) → StreamingPruner(...).process → write_events(file)

Because a DTD is a *local* tree grammar, the interpretation of a node is
fully determined by its tag (elements) or its parent's tag (text): no
validation state is needed to prune.  All per-name decisions (keep/skip,
kept text, attribute filter) are precompiled into a
:class:`~repro.projection.prunetable.PruneTable` shared with the fused
fast path (:mod:`repro.projection.fastpath`).  An optional validating mode
runs the :class:`~repro.dtd.validator.EventValidator` alongside — the
paper's "prune while validating at no extra cost" deployment.

The public entry point is the :func:`repro.api.prune` facade (re-exported
as ``repro.prune``), a thin adapter over the shared run path
(:mod:`repro.run`): it routes through the fused fast path by default
(``fast=False`` forces the event pipeline, e.g. for benchmarking), while
validation always uses the event pipeline because the validator must see
every event, including those inside pruned subtrees.

Every pruning pass reports through :mod:`repro.obs`: a ``"prune"`` span
carrying the :class:`~repro.projection.stats.PruneStats` counters and a
``mode`` attribute (``"fast"`` or ``"events"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.dtd.grammar import Grammar
from repro.dtd.validator import EventValidator
from repro.errors import ValidationError
from repro.obs import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard
from repro.projection.prunetable import PruneTable, TagPlan, compile_prune_table
from repro.projection.stats import PruneStats
from repro.xmltree.events import (
    Characters,
    EndElement,
    Event,
    StartElement,
)


class StreamingPruner:
    """Event-stream pruning transformer.

    The only state is a depth counter while inside a discarded subtree and
    the stack of kept-element plans (needed to interpret text nodes) —
    memory is O(document depth), never O(document size).
    """

    def __init__(
        self,
        grammar: Grammar,
        projector: frozenset[str] | set[str],
        validate: bool = False,
        prune_attributes: bool = True,
        stats: PruneStats | None = None,
        guard: "LimitGuard | None" = None,
    ) -> None:
        self.grammar = grammar
        self._table = compile_prune_table(grammar, frozenset(projector), prune_attributes)
        self.projector = self._table.projector
        self.stats = stats
        #: Resource guard for *event-stream* input (:mod:`repro.limits`).
        #: When the events come from a guarded parser, depth/token checks
        #: already ran upstream and this stays ``None``.
        self._guard = guard
        self._validator = EventValidator(grammar) if validate else None
        self._skip_depth = 0
        self._open_plans: list[TagPlan] = []

    @property
    def table(self) -> PruneTable:
        return self._table

    @property
    def _open_names(self) -> list[str]:
        """Names of the currently open kept elements (diagnostics)."""
        return [plan.name for plan in self._open_plans]

    # -- the transformer -----------------------------------------------------

    def process(self, events: Iterable[Event]) -> Iterator[Event]:
        for event in events:
            if self._validator is not None:
                self._validator.feed(event)
            result = self._process_event(event)
            if result is not None:
                yield result
        if self._validator is not None:
            self._validator.finish()

    def _process_event(self, event: Event) -> Event | None:
        stats = self.stats
        if isinstance(event, StartElement):
            if self._guard is not None:
                self._guard.check_depth(
                    self._skip_depth + len(self._open_plans) + 1
                )
                self._guard.tick()
            if stats is not None:
                stats.elements_in += 1
                stats.attributes_in += len(event.attributes)
                stats.distinct_tags_in.add(event.tag)
            if self._skip_depth:
                self._skip_depth += 1
                return None
            table = self._table
            if table.local:
                plan = table.by_tag.get(event.tag)
            else:
                open_plans = self._open_plans
                parent_name = open_plans[-1].name if open_plans else None
                plan = table.by_parent.get((parent_name, event.tag))
            if plan is None:
                if self._validator is None:
                    raise ValidationError(f"undeclared element <{event.tag}>")
                return None  # unreachable: the validator raised already
            if not plan.keep:
                self._skip_depth = 1
                return None
            self._open_plans.append(plan)
            attributes = event.attributes
            prunable = plan.prunable
            if prunable and prunable & attributes.keys():
                attributes = {
                    name: value
                    for name, value in attributes.items()
                    if name not in prunable
                }
            if stats is not None:
                stats.elements_out += 1
                stats.attributes_out += len(attributes)
                stats.distinct_tags_out.add(event.tag)
            if attributes is event.attributes:
                return event
            return StartElement(event.tag, attributes)
        if isinstance(event, EndElement):
            if self._skip_depth:
                self._skip_depth -= 1
                return None
            self._open_plans.pop()
            return event
        if isinstance(event, Characters):
            if self._guard is not None:
                self._guard.check_token(len(event.text))
            if stats is not None:
                stats.texts_in += 1
            if self._skip_depth or not self._open_plans:
                return None
            if not self._open_plans[-1].text_kept:
                return None
            if stats is not None:
                stats.texts_out += 1
            return event
        # Comments and PIs inside a discarded subtree vanish with their
        # parent — emitting them would detach them from their (dropped)
        # context and change the pruned document.
        if self._skip_depth:
            return None
        # Document boundaries, doctype, and misc events in kept regions
        # pass through untouched (they carry no data-model content).
        return event


# -- internal pipelines (used by the repro.api.prune facade) -----------------


def _prune_events(
    events: Iterable[Event],
    grammar: Grammar,
    projector: frozenset[str] | set[str],
    validate: bool = False,
    stats: PruneStats | None = None,
    prune_attributes: bool = True,
    guard: "LimitGuard | None" = None,
) -> Iterator[Event]:
    """Prune an event stream (see :class:`StreamingPruner`)."""
    tracer = get_tracer()
    if stats is None and tracer.enabled:
        stats = PruneStats()
    pruner = StreamingPruner(
        grammar, projector,
        validate=validate, prune_attributes=prune_attributes, stats=stats,
        guard=guard,
    )
    iterator = pruner.process(events)
    if not tracer.enabled:
        return iterator
    return _traced_events(iterator, pruner, tracer)


def _traced_events(iterator, pruner: StreamingPruner, tracer) -> Iterator[Event]:
    """Wrap an event-mode prune in a span that closes on exhaustion."""
    span = tracer.span("prune", mode="events", validate=pruner._validator is not None)
    span.start()
    try:
        yield from iterator
    finally:
        if pruner.stats is not None:
            span.merge_counters(pruner.stats.as_counters())
        span.finish()
