"""Buffered character scanner used by the streaming XML parser.

The scanner reads from a string or any text-mode file object in fixed-size
chunks, so the parser built on top of it is genuinely streaming: memory
consumption is bounded by the chunk size plus the longest single token
(tag, comment, text run), never by document size.  This property is what
lets the pruner process arbitrarily large documents (Section 6 of the
paper: "on our 512MB machine we were able to efficiently prune arbitrary
large documents").
"""

from __future__ import annotations

import re
import sys
from typing import IO, TYPE_CHECKING, Iterator, Union

from repro.errors import XMLSyntaxError

if TYPE_CHECKING:  # pragma: no cover
    from repro.limits import LimitGuard

Source = Union[str, IO[str]]

DEFAULT_CHUNK_SIZE = 1 << 16

# Characters allowed to start / continue an XML name.  We implement the
# pragmatic ASCII-centric subset plus full non-ASCII passthrough, which
# covers every document the benchmarks generate and real-world DTDs.
_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")
# All ASCII name characters, for the scanner's bulk fast path.
_NAME_CHARS_FAST = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:.-"
)


def is_name_start(char: str) -> bool:
    return char.isalpha() or char in _NAME_START_EXTRA or ord(char) > 127


def is_name_char(char: str) -> bool:
    return char.isalnum() or char in _NAME_EXTRA or ord(char) > 127


class Scanner:
    """Incremental look-ahead scanner over a chunked character buffer.

    The public protocol used by the parser:

    * :meth:`peek` / :meth:`advance` — single-character look-ahead;
    * :meth:`startswith` / :meth:`expect` — multi-character look-ahead;
    * :meth:`read_until` — consume up to (not including) a delimiter,
      loading more input as needed;
    * :meth:`read_name`, :meth:`skip_whitespace` — token helpers;
    * :meth:`matches` / :meth:`consume_to` — back-to-back matches of a
      compiled regex over the buffered input, and the commit of the last
      one used (the fused pruner's tokenizer).

    Line and column numbers are computed only when an error is built:
    consuming input never counts newlines.  The one eager count happens
    when a consumed prefix is dropped from the buffer, so diagnostics
    still see the whole input while the hot loops pay nothing for them.
    """

    __slots__ = (
        "_source", "_buffer", "_position", "_eof", "_chunk_size", "_consumed",
        "_dropped_lines", "_dropped_line_start", "_guard", "_max_token", "_ahead",
        "_amp",
    )

    def __init__(
        self,
        source: Source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        guard: "LimitGuard | None" = None,
    ) -> None:
        self._guard = guard
        max_token = guard.max_token if guard is not None else None
        self._max_token = sys.maxsize if max_token is None else max_token
        if isinstance(source, str):
            self._source: IO[str] | None = None
            self._buffer = source
            self._eof = True
            # A string source is "read" in one piece: account for it up
            # front so max_input_bytes trips before any scanning begins.
            if guard is not None:
                guard.add_input(len(source))
        else:
            self._source = source
            self._buffer = ""
            self._eof = False
        self._position = 0
        self._chunk_size = chunk_size
        self._consumed = 0  # characters dropped by buffer compaction
        # Newlines in the dropped characters, and the absolute offset just
        # past the last of them: all error() needs from the dropped input.
        self._dropped_lines = 0
        self._dropped_line_start = 0
        # The leading delimiter's search kept by the last multi-delimiter
        # read, as ``(delimiters, index)`` with -1 for a miss; dropped when
        # the buffer changes (see _nearest).
        self._ahead: tuple[str, int] | None = None
        # Buffer index of the next '&' as :meth:`matches` last found it, -1
        # for none in the rest of the buffer, -2 before a search in this
        # buffer: reset wherever _ahead is.
        self._amp = -2

    @property
    def guard(self) -> "LimitGuard | None":
        """The resource guard this scanner reports to (see
        :mod:`repro.limits`); consumers built on the scanner share it."""
        return self._guard

    # -- diagnostics -----------------------------------------------------

    def _location(self) -> tuple[int, int]:
        """1-based (line, column) of the current position."""
        buffer = self._buffer
        position = self._position
        line = self._dropped_lines + buffer.count("\n", 0, position) + 1
        last = buffer.rfind("\n", 0, position)
        line_start = self._dropped_line_start if last == -1 else self._consumed + last + 1
        return line, self._consumed + position - line_start + 1

    @property
    def line(self) -> int:
        return self._location()[0]

    @property
    def column(self) -> int:
        return self._location()[1]

    @property
    def chars_consumed(self) -> int:
        """Characters consumed so far: the quantity the observability
        layer reports for parse/prune spans.  These are decoded
        characters, not UTF-8 bytes; the two agree on ASCII input, and
        counting characters needs no re-encoding."""
        return self._consumed + self._position

    def error(self, message: str) -> XMLSyntaxError:
        line, column = self._location()
        return XMLSyntaxError(message, line, column)

    # -- buffer management ----------------------------------------------

    def _drop_consumed(self) -> None:
        """Forget the consumed prefix ``buffer[:position]`` (the caller
        rebinds the buffer), keeping only its newline count for
        :meth:`error`."""
        buffer = self._buffer
        position = self._position
        newlines = buffer.count("\n", 0, position)
        if newlines:
            self._dropped_lines += newlines
            self._dropped_line_start = self._consumed + buffer.rfind("\n", 0, position) + 1
        self._consumed += position

    def _fill(self, needed: int) -> None:
        """Ensure at least ``needed`` characters are available after the
        current position, unless EOF intervenes."""
        if self._eof:
            return
        assert self._source is not None
        if self._position and self._position >= len(self._buffer):
            # Fully-consumed buffer: drop it before refilling so the
            # ``+=`` below binds the fresh chunk directly (CPython returns
            # the chunk itself when concatenating onto ``""``) instead of
            # copying the dead prefix along with it.  Diagnostics keep
            # what they need of the prefix (see _drop_consumed).
            self._drop_consumed()
            self._buffer = ""
            self._position = 0
            self._ahead = None
            self._amp = -2
        while len(self._buffer) - self._position < needed:
            chunk = self._source.read(self._chunk_size)
            if not chunk:
                self._eof = True
                return
            if self._guard is not None:
                # Per-refill: input-size accounting plus the deadline
                # check (streams can be endless; every chunk is a chance
                # to stop).
                self._guard.add_input(len(chunk))
            self._buffer += chunk
            self._ahead = None
            self._amp = -2

    def _compact(self) -> None:
        """Drop already-consumed characters so the buffer stays small.
        Once the source is exhausted nothing more is appended, so there
        is nothing left to bound (a string source is never copied)."""
        if self._position > self._chunk_size and not self._eof:
            self._drop_consumed()
            self._buffer = self._buffer[self._position :]
            self._position = 0
            self._ahead = None
            self._amp = -2

    # -- single character protocol ----------------------------------------

    def at_eof(self) -> bool:
        self._fill(1)
        return self._position >= len(self._buffer)

    def peek(self) -> str:
        """The next character, or '' at end of input."""
        self._fill(1)
        if self._position >= len(self._buffer):
            return ""
        return self._buffer[self._position]

    def peek_at(self, offset: int) -> str:
        self._fill(offset + 1)
        index = self._position + offset
        if index >= len(self._buffer):
            return ""
        return self._buffer[index]

    def advance(self) -> str:
        """Consume and return the next character ('' at end of input)."""
        self._fill(1)
        if self._position >= len(self._buffer):
            return ""
        char = self._buffer[self._position]
        self._position += 1
        self._compact()
        return char

    # -- multi character protocol ------------------------------------------

    def matches(
        self, pattern: "re.Pattern[str]", lean: "re.Pattern[str]"
    ) -> "Iterator[re.Match[str]]":
        """Back-to-back matches of ``pattern`` over the buffered input from
        the current position, as a C-level iterator: each match starts
        where the previous one ended, and the iterator stops at the first
        miss.  Nothing is consumed: the caller commits the end of the last
        match it used with :meth:`consume_to` before it reads on by any
        other means, and builds a new iterator after that.

        No input is loaded, so a token that straddles the end of the
        buffer is a miss.  The matches are confined to the guard's
        ``max_token_bytes`` characters from the position, so none is
        longer than the limit; a token across that edge is a miss too.  A
        caller falls back to the per-construct readers, which refill and
        enforce the limit themselves.

        ``lean`` serves a window that holds no ``&`` in place of
        ``pattern``; the caller passes one that makes the same matches as
        ``pattern`` on text without ``&``.  The next ``&`` is found
        with one search per buffer: the index is kept while it lies ahead
        of the position (or while there is none) and dropped when the
        buffer changes, so a run of misses does not search the rest of the
        buffer once each."""
        buffer = self._buffer
        position = self._position
        end = min(len(buffer), position + self._max_token)
        amp = self._amp
        if amp < position and amp != -1:
            amp = self._amp = buffer.find("&", position)
        if amp == -1 or amp >= end:
            pattern = lean
        return iter(pattern.scanner(buffer, position, end).match, None)

    def consume_to(self, index: int) -> None:
        """Consume the buffered input up to buffer index ``index``: the end
        of the last match taken from :meth:`matches`, or a point inside
        it."""
        self._position = index

    def startswith(self, prefix: str) -> bool:
        self._fill(len(prefix))
        return self._buffer.startswith(prefix, self._position)

    def try_consume(self, prefix: str) -> bool:
        """Consume ``prefix`` if present, returning whether it was."""
        if self.startswith(prefix):
            self._position += len(prefix)
            self._compact()
            return True
        return False

    def expect(self, prefix: str, context: str = "") -> None:
        if not self.try_consume(prefix):
            where = f" in {context}" if context else ""
            found = self._buffer[self._position : self._position + 12]
            raise self.error(f"expected {prefix!r}{where}, found {found!r}")

    def read_until(self, delimiter: str, context: str = "") -> str:
        """Consume and return everything up to ``delimiter``; the delimiter
        itself is consumed but not returned."""
        pieces: list[str] = []
        total = 0
        guard = self._guard
        while True:
            index = self._buffer.find(delimiter, self._position)
            if index != -1:
                text = self._buffer[self._position : index]
                if guard is not None:
                    guard.check_token(total + len(text))
                self._position = index + len(delimiter)
                self._compact()
                pieces.append(text)
                return "".join(pieces)
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")
            # Keep a delimiter-sized tail in case it straddles a chunk edge.
            keep = len(delimiter) - 1
            cut = max(self._position, len(self._buffer) - keep)
            text = self._buffer[self._position : cut]
            if text:
                pieces.append(text)
                self._position = cut
                if guard is not None:
                    # In-loop check: bound the accumulation itself, not
                    # just the joined result — a stream source must not
                    # buffer an over-limit token before refusing it.
                    total += len(text)
                    guard.check_token(total)
            # Progress is measured in absolute stream offset: _fill may
            # drop the consumed prefix (and _compact shifts it), so the
            # buffer length alone can stay equal while new data arrived.
            before = self._consumed + len(self._buffer)
            self._fill(len(self._buffer) - self._position + self._chunk_size)
            self._compact()
            if self._consumed + len(self._buffer) == before and self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")

    def _nearest(self, delimiters: str) -> int:
        """Buffer index of the nearest of the single-character
        ``delimiters`` at or after the position, or -1.  Each search
        stops at the nearest hit so far, so a delimiter that is rare in
        the input does not send a scan to the end of the buffer.

        When a later delimiter ends a read before the leading one (an
        entity reference before the next tag), the leading delimiter's
        search is kept for the next read: a hit while it still lies ahead
        of the position, a miss until the buffer is refilled.  Otherwise a
        run of references would re-scan the rest of the buffer once each."""
        buffer = self._buffer
        position = self._position
        if len(delimiters) < 2:  # a read ends at its one delimiter, if any
            return buffer.find(delimiters, position) if delimiters else -1
        best = lead = None
        for delimiter in delimiters:
            if best is None:  # the leading delimiter
                ahead = self._ahead
                if ahead is not None:
                    self._ahead = None
                    if ahead[0] == delimiters and (ahead[1] >= position or ahead[1] == -1):
                        best = lead = ahead[1]
                        continue
                best = lead = buffer.find(delimiter, position)
            elif best == -1:
                best = buffer.find(delimiter, position)
            else:
                index = buffer.find(delimiter, position, best)
                if index != -1:
                    best = index
        if best != lead:
            self._ahead = (delimiters, lead)
        return best

    def read_until_any(self, delimiters: str) -> str:
        """Consume and return everything up to (not including) the nearest
        of ``delimiters``; stops at end of input.  Bulk operation — this is
        the hot path for character data."""
        pieces: list[str] = []
        total = 0
        guard = self._guard
        while True:
            best = self._nearest(delimiters)
            if best != -1:
                text = self._buffer[self._position : best]
                if guard is not None:
                    guard.check_token(total + len(text))
                self._position = best
                self._compact()
                pieces.append(text)
                return "".join(pieces)
            text = self._buffer[self._position :]
            if text:
                pieces.append(text)
                self._position = len(self._buffer)
                if guard is not None:
                    total += len(text)
                    guard.check_token(total)
            if self._eof:
                return "".join(pieces)
            self._fill(self._chunk_size)
            self._compact()
            if len(self._buffer) - self._position == 0 and self._eof:
                return "".join(pieces)

    def skip_until(self, delimiter: str, context: str = "") -> None:
        """:meth:`read_until` without materialising the skipped text — the
        bulk path used when pruning discards a region wholesale."""
        while True:
            index = self._buffer.find(delimiter, self._position)
            if index != -1:
                self._position = index + len(delimiter)
                self._compact()
                return
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")
            # Keep a delimiter-sized tail in case it straddles a chunk edge.
            keep = len(delimiter) - 1
            self._position = max(self._position, len(self._buffer) - keep)
            # Absolute-offset progress check (see read_until).
            before = self._consumed + len(self._buffer)
            self._fill(len(self._buffer) - self._position + self._chunk_size)
            self._compact()
            if self._consumed + len(self._buffer) == before and self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for {delimiter!r}{where}")

    def skip_until_any(self, delimiters: str) -> bool:
        """:meth:`read_until_any` without materialising the skipped text;
        returns whether any characters were consumed.  Stops at end of
        input."""
        skipped = False
        while True:
            best = self._nearest(delimiters)
            if best != -1:
                if best > self._position:
                    self._position = best
                    skipped = True
                self._compact()
                return skipped
            if len(self._buffer) > self._position:
                self._position = len(self._buffer)
                skipped = True
            if self._eof:
                return skipped
            self._fill(self._chunk_size)
            self._compact()
            if len(self._buffer) - self._position == 0 and self._eof:
                return skipped

    def read_tag_content(self, context: str = "tag") -> str:
        """Consume up to and including the next *unquoted* ``>``,
        returning the text before it.  ``>`` inside a quoted attribute
        value does not terminate the tag.  Bulk operation — both
        pipelines read every tag this way (the shared tag reader,
        :func:`repro.xmltree.parser._read_start_tag`), so the whole tag is
        one token to ``max_token_bytes``.

        After a quoted value the delimiter searches are not all made
        again: a hit that still lies ahead of the position is kept, and so
        is a miss while its bound holds (the ``>`` that bounded it, or the
        end of the buffer until a refill).  A tag with many quoted values
        is then scanned once, not once per value."""
        pieces: list[str] = []
        quote = ""
        total = 0
        guard = self._guard
        searched = False  # gt, dq and sq hold searches made in this buffer
        while True:
            buffer = self._buffer
            position = self._position
            if quote:
                index = buffer.find(quote, position)
                if index != -1:
                    text = buffer[position : index + 1]
                    self._position = index + 1
                    pieces.append(text)
                    if guard is not None:
                        total += len(text)
                        guard.check_token(total)
                    quote = ""
                    continue
            else:
                if not searched:
                    gt = buffer.find(">", position)
                    if gt != -1:
                        # Quote searches are bounded by the tag end.
                        dq = buffer.find('"', position, gt)
                        sq = buffer.find("'", position, gt)
                    else:
                        dq = buffer.find('"', position)
                        sq = buffer.find("'", position)
                    searched = True
                else:
                    if -1 < gt < position:  # the '>' was inside the value
                        gt = buffer.find(">", position)
                        dq = sq = -2  # their misses were bounded by the old '>'
                    if dq < position and dq != -1:
                        dq = buffer.find('"', position, gt) if gt != -1 else buffer.find('"', position)
                    if sq < position and sq != -1:
                        sq = buffer.find("'", position, gt) if gt != -1 else buffer.find("'", position)
                nearest_quote = dq if sq == -1 else sq if dq == -1 else min(dq, sq)
                if nearest_quote != -1:
                    text = buffer[position : nearest_quote + 1]
                    self._position = nearest_quote + 1
                    pieces.append(text)
                    if guard is not None:
                        total += len(text)
                        guard.check_token(total)
                    quote = buffer[nearest_quote]
                    continue
                if gt != -1:
                    text = buffer[position:gt]
                    if guard is not None:
                        guard.check_token(total + len(text))
                    self._position = gt + 1
                    self._compact()
                    pieces.append(text)
                    return "".join(pieces)
            text = buffer[position:]
            if text:
                pieces.append(text)
                self._position = len(buffer)
                if guard is not None:
                    total += len(text)
                    guard.check_token(total)
            if self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for '>'{where}")
            # Absolute-offset progress check (see read_until).
            before = self._consumed + len(self._buffer)
            self._fill(self._chunk_size)
            self._compact()
            searched = False
            if self._consumed + len(self._buffer) == before and self._eof:
                where = f" in {context}" if context else ""
                raise self.error(f"unexpected end of input looking for '>'{where}")

    # -- XML token helpers ---------------------------------------------------

    def skip_whitespace(self) -> None:
        while True:
            self._fill(1)
            buffer = self._buffer
            position = self._position
            end = len(buffer)
            start = position
            while position < end and buffer[position] in " \t\r\n":
                position += 1
            if position > start:
                self._position = position
                self._compact()
            if position < end or self._eof:
                return

    def read_name(self, context: str = "name") -> str:
        """Bulk name scan (names never straddle chunk edges unnoticed: the
        buffer is refilled until a non-name character or EOF is in view)."""
        self._fill(1)
        buffer = self._buffer
        position = self._position
        if position >= len(buffer) or not is_name_start(buffer[position]):
            found = buffer[position] if position < len(buffer) else ""
            raise self.error(f"expected {context}, found {found!r}")
        end = position + 1
        while True:
            length = len(buffer)
            while end < length:
                char = buffer[end]
                if char in _NAME_CHARS_FAST or (ord(char) > 127 and is_name_char(char)):
                    end += 1
                else:
                    break
            if end < length or self._eof:
                break
            self._fill(end - self._position + 1)
            if len(self._buffer) == length:
                break
            buffer = self._buffer
        if self._guard is not None:
            self._guard.check_token(end - position)
        name = buffer[position:end]
        self._position = end
        self._compact()
        return name
