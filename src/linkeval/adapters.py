"""Text adapters that bridge raw documents and span-based linkers.

These are the glue steps a black-box annotator needs around an arbitrary
input document: a deterministic word tokenizer with exact character
offsets, a length-bounded document splitter, re-assembly of per-segment
annotations into document coordinates, and conversion of subtoken indices
back to character spans.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import InvalidSpan, LengthMismatch, OutOfBounds, UnknownSubtoken
from .model import Annotation, Span, TokenSpan, normalize_annotations

_PUNCT = frozenset(string.punctuation)
_SENTENCE_FINAL = frozenset(".!?")
_APOSTROPHES = ("'", "’")
_CHUNK = re.compile(r"\S+")  # \s is exactly str.isspace on str patterns


def _chunk_pieces(chunk: str) -> list[tuple[int, int]]:
    """(begin, end) offsets of a chunk's tokens, relative to the chunk.

    Leading and trailing punctuation characters are detached one per token.
    The core between them splits at interior apostrophes: the negation
    suffix keeps its leading consonant ("don't" cuts before the "n"), any
    other apostrophe starts the new piece ("Japan's" cuts before it).
    """
    left, right = 0, len(chunk)
    while left < right and chunk[left] in _PUNCT:
        left += 1
    while right > left and chunk[right - 1] in _PUNCT:
        right -= 1
    bounds = list(range(left + 1))
    for i in range(left + 1, right - 1):
        if chunk[i] in _APOSTROPHES:
            cut = i - 1 if (chunk[i - 1] in "nN" and chunk[i + 1] in "tT") else i
            if cut > bounds[-1]:
                bounds.append(cut)
    bounds.extend(range(max(right, bounds[-1] + 1), len(chunk) + 1))
    return list(zip(bounds, bounds[1:]))


def _token_offsets(text: str) -> list[tuple[int, int]]:
    """(begin, end) offsets of text's tokens under tokenize's rules."""
    offsets: list[tuple[int, int]] = []
    for match in _CHUNK.finditer(text):
        chunk = match.group()
        if chunk[0] in _PUNCT or chunk[-1] in _PUNCT or "'" in chunk or "’" in chunk:
            start = match.start()
            offsets.extend((start + begin, start + end) for begin, end in _chunk_pieces(chunk))
        else:
            offsets.append(match.span())
    return offsets


def tokenize(text: str) -> list[TokenSpan]:
    """Split text into word tokens with exact character offsets.

    Whitespace (``str.isspace``) separates chunks; leading and trailing
    punctuation characters are detached one per token; contractions split
    at apostrophes. For every returned token,
    text[span.begin:span.end] == surface.
    """
    return [TokenSpan(i, Span(begin, end), text[begin:end]) for i, (begin, end) in enumerate(_token_offsets(text))]


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous slice of a document handed to the linker in one call.

    ``token_range`` indexes the document's tokens; ``tokens`` holds those
    tokens' (begin, end) offsets, relative to ``text``.
    """

    text: str
    char_offset: int
    token_range: tuple[int, int]
    tokens: tuple[tuple[int, int], ...]


def split_document(text: str, max_tokens: int, tokenizer: Callable[[str], list[TokenSpan]] = tokenize) -> list[Segment]:
    """Split a document into segments of at most max_tokens tokens.

    A document that already fits yields exactly one segment identical to the
    input. Otherwise segments are cut greedily, preferring the last
    sentence-final punctuation token (. ! ?) inside the window and falling
    back to a hard cut at the window edge. Cuts never land inside a token.

    The document is tokenized once, and each segment gets its slice of
    those tokens, shifted to the segment.
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    offsets = [(token.span.begin, token.span.end) for token in tokenizer(text)]
    total = len(offsets)
    if total <= max_tokens:
        return [Segment(text=text, char_offset=0, token_range=(0, total), tokens=tuple(offsets))]

    segments: list[Segment] = []
    start = 0
    while start < total:
        window_end = min(start + max_tokens, total)
        cut = window_end
        if window_end < total:
            for i in range(window_end - 1, start - 1, -1):
                begin, end = offsets[i]
                if text[begin:end] in _SENTENCE_FINAL:
                    cut = i + 1
                    break
        begin_char = offsets[start][0]
        tokens = tuple((begin - begin_char, end - begin_char) for begin, end in offsets[start:cut])
        segments.append(Segment(text[begin_char:offsets[cut - 1][1]], begin_char, (start, cut), tokens))
        start = cut
    return segments


def merge_segment_annotations(
    segments: Sequence[Segment],
    per_segment: Sequence[Sequence[Annotation]],
) -> list[Annotation]:
    """Map per-segment annotations back to document coordinates and normalize.

    The two sequences must be parallel. Each annotation is shifted by its
    segment's character offset; an annotation outside its segment's bounds
    is rejected.
    """
    if len(segments) != len(per_segment):
        raise LengthMismatch(f"{len(segments)} segments but {len(per_segment)} annotation lists")
    shifted: list[Annotation] = []
    for segment, annotations in zip(segments, per_segment):
        offset = segment.char_offset
        for ann in annotations:
            if ann.span.end > len(segment.text):
                raise OutOfBounds(
                    f"span ({ann.span.begin}, {ann.span.end}) exceeds segment length {len(segment.text)}"
                )
            shifted.append(Annotation(ann.span.shift(offset), ann.entity) if offset else ann)
    return normalize_annotations(shifted)


@dataclass(frozen=True)
class SubtokenMap:
    """Maps subtoken indices (e.g. wordpiece positions) to character spans."""

    entries: tuple[tuple[int, Span], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        last = -1
        for index, _span in self.entries:
            if index <= last:
                raise ValueError(f"subtoken indices must be strictly increasing, got {index} after {last}")
            last = index


def subtoken_to_char(
    subtoken_annotations: Sequence[tuple[int, int, object]],
    mapping: SubtokenMap | Mapping[int, Span],
) -> list[tuple[Span, object]]:
    """Convert (first_subtoken, last_subtoken, payload) triples to char spans.

    Subtoken indices are inclusive on both ends; the resulting span runs
    from the begin of the first subtoken to the end of the last one.
    """
    lookup: Mapping[int, Span]
    if isinstance(mapping, SubtokenMap):
        lookup = dict(mapping.entries)
    else:
        lookup = mapping
    out: list[tuple[Span, object]] = []
    for first, last, payload in subtoken_annotations:
        if first > last:
            raise InvalidSpan(f"subtoken range ({first}, {last}) is reversed")
        try:
            begin = lookup[first].begin
            end = lookup[last].end
        except KeyError as exc:
            raise UnknownSubtoken(f"no entry for subtoken index {exc.args[0]}") from exc
        out.append((Span(begin, end), payload))
    return out
