"""Core value types: entities, character spans, annotations, documents.

Character offsets throughout the package are indices into Python strings,
i.e. offsets over Unicode scalar values, never bytes. All types here are
immutable after construction and safe to share between threads.

EntityId, Span, Annotation and TokenSpan are built by a hand-written
``__init__`` that checks its arguments and stores each field through its
slot's descriptor, where a generated frozen ``__init__`` makes one
``object.__setattr__`` call per field. They stay frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import InvalidSpan, MalformedLine

# Reserved identifier for the "no entity" / out-of-KB marker. Corpus and
# resource loaders map this surface form onto the single None entity.
NONE_ENTITY_ID = "--NME--"


@dataclass(frozen=True, slots=True, init=False)
class EntityId:
    """A knowledge-base entity identifier.

    ``is_none`` marks the reserved None entity used for mentions that have
    no KB referent. A vocabulary contains at most one such entity.
    """

    id: str
    is_none: bool = False

    def __init__(self, id: str, is_none: bool = False) -> None:
        if not id or id != id.strip():
            raise ValueError(f"entity id must be non-empty with no surrounding whitespace: {id!r}")
        _set_entity_id(self, id)
        _set_entity_is_none(self, is_none)

    def __hash__(self) -> int:
        # equal entities have equal ids, so this keeps the hash rule
        return hash(self.id)

    def __str__(self) -> str:
        return self.id


_set_entity_id, _set_entity_is_none = EntityId.id.__set__, EntityId.is_none.__set__


NONE_ENTITY = EntityId(NONE_ENTITY_ID, is_none=True)


def make_entity(raw: str) -> EntityId:
    """Build an EntityId from a raw identifier string.

    The reserved marker string maps onto the canonical None entity; anything
    else is an ordinary KB entity.
    """
    if raw == NONE_ENTITY_ID:
        return NONE_ENTITY
    return EntityId(raw)


@dataclass(frozen=True, slots=True, order=True, init=False)
class Span:
    """A half-open character interval [begin, end) into a document text."""

    begin: int
    end: int

    def __init__(self, begin: int, end: int) -> None:
        if not (isinstance(begin, int) and isinstance(end, int)):
            raise InvalidSpan(f"span offsets must be integers: ({begin!r}, {end!r})")
        if begin < 0 or begin >= end:
            raise InvalidSpan(f"require 0 <= begin < end, got ({begin}, {end})")
        _set_span_begin(self, begin)
        _set_span_end(self, end)

    def __len__(self) -> int:
        return self.end - self.begin

    def overlaps(self, other: "Span") -> bool:
        return self.begin < other.end and other.begin < self.end

    def shift(self, offset: int) -> "Span":
        return Span(self.begin + offset, self.end + offset)


_set_span_begin, _set_span_end = Span.begin.__set__, Span.end.__set__


@dataclass(frozen=True, slots=True, init=False)
class Annotation:
    """One linked mention: a span plus the entity it refers to."""

    span: Span
    entity: EntityId

    def __init__(self, span: Span, entity: EntityId) -> None:
        _set_annotation_span(self, span)
        _set_annotation_entity(self, entity)


_set_annotation_span, _set_annotation_entity = Annotation.span.__set__, Annotation.entity.__set__


@dataclass(frozen=True, slots=True, init=False)
class TokenSpan:
    """A token together with its character span in the owning text."""

    token_index: int
    span: Span
    surface: str

    def __init__(self, token_index: int, span: Span, surface: str) -> None:
        _set_token_index(self, token_index)
        _set_token_span(self, span)
        _set_token_surface(self, surface)


_set_token_index, _set_token_span, _set_token_surface = (
    TokenSpan.token_index.__set__, TokenSpan.span.__set__, TokenSpan.surface.__set__
)


@dataclass(frozen=True)
class AnnotatedDocument:
    """A document with its gold annotations.

    Gold annotations must be pairwise non-overlapping, and every span must
    lie within the text.
    """

    doc_id: str
    text: str
    gold: tuple[Annotation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gold", tuple(self.gold))
        for ann in self.gold:
            if ann.span.end > len(self.text):
                raise InvalidSpan(
                    f"{self.doc_id}: span ({ann.span.begin}, {ann.span.end}) exceeds text length {len(self.text)}"
                )
        ordered = sorted(self.gold, key=lambda ann: (ann.span.begin, ann.span.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.span.overlaps(cur.span):
                raise InvalidSpan(
                    f"{self.doc_id}: gold spans ({prev.span.begin}, {prev.span.end}) and "
                    f"({cur.span.begin}, {cur.span.end}) overlap"
                )


def normalize_annotations(annotations: Iterable[Annotation]) -> list[Annotation]:
    """Sort annotations by (begin, end, entity) and drop exact duplicates.

    Idempotent; the output is a canonical ordering suitable for comparison
    and deterministic iteration. Equal sort keys keep their input order,
    and an annotation is dropped when it equals the last one kept.
    """
    annotations = list(annotations)
    # the index breaks ties, so this is a stable sort by (begin, end, entity id)
    ordered = sorted([(a.span.begin, a.span.end, a.entity.id, i) for i, a in enumerate(annotations)])
    out: list[Annotation] = []
    last = None
    for begin, end, entity_id, i in ordered:
        # is_none tells NONE_ENTITY from a plain "--NME--", the one id unequal entities share
        key = (begin, end, entity_id, annotations[i].entity.is_none)
        if key != last:
            out.append(annotations[i])
            last = key
    return out


def filter_inkb(annotations: Iterable[Annotation], vocabulary: frozenset[EntityId] | set[EntityId] | None) -> list[Annotation]:
    """Keep the in-KB annotations; this is the package's one rule for them.

    An entity is in KB when it is not the None entity and, if a vocabulary
    is given, a member of it. Input order is preserved; the result is a
    subsequence of the input.
    """
    if vocabulary is None:
        return [a for a in annotations if not a.entity.is_none]
    return [a for a in annotations if not a.entity.is_none and a.entity in vocabulary]


def read_utf8(data: bytes | str | IO[bytes]) -> str:
    """Decode an input file's contents; text passes through unchanged.

    Raises MalformedLine when the bytes are not valid UTF-8.
    """
    if isinstance(data, str):
        return data
    raw = data if isinstance(data, bytes) else data.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"input is not valid UTF-8: {exc}") from exc


def data_lines(data: bytes | str | IO[bytes]) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line) pairs, skipping blank and ``#`` lines."""
    for number, line in enumerate(read_utf8(data).splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield number, line
