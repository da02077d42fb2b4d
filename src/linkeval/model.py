"""Core value types: entities, character spans, annotations, documents.

Character offsets throughout the package are indices into Python strings,
i.e. offsets over Unicode scalar values, never bytes. All types here are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import InvalidSpan, MalformedLine

# Reserved identifier for the "no entity" / out-of-KB marker. Corpus and
# resource loaders map this surface form onto the single None entity.
NONE_ENTITY_ID = "--NME--"


@dataclass(frozen=True, slots=True)
class EntityId:
    """A knowledge-base entity identifier.

    ``is_none`` marks the reserved None entity used for mentions that have
    no KB referent. A vocabulary contains at most one such entity.
    """

    id: str
    is_none: bool = False

    def __post_init__(self) -> None:
        if not self.id or self.id != self.id.strip():
            raise ValueError(f"entity id must be non-empty with no surrounding whitespace: {self.id!r}")

    def __str__(self) -> str:
        return self.id


NONE_ENTITY = EntityId(NONE_ENTITY_ID, is_none=True)


def make_entity(raw: str) -> EntityId:
    """Build an EntityId from a raw identifier string.

    The reserved marker string maps onto the canonical None entity; anything
    else is an ordinary KB entity.
    """
    if raw == NONE_ENTITY_ID:
        return NONE_ENTITY
    return EntityId(raw)


@dataclass(frozen=True, slots=True, order=True)
class Span:
    """A half-open character interval [begin, end) into a document text."""

    begin: int
    end: int

    def __post_init__(self) -> None:
        if not (isinstance(self.begin, int) and isinstance(self.end, int)):
            raise InvalidSpan(f"span offsets must be integers: ({self.begin!r}, {self.end!r})")
        if self.begin < 0 or self.begin >= self.end:
            raise InvalidSpan(f"require 0 <= begin < end, got ({self.begin}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.begin

    def overlaps(self, other: "Span") -> bool:
        return self.begin < other.end and other.begin < self.end

    def shift(self, offset: int) -> "Span":
        return Span(self.begin + offset, self.end + offset)


@dataclass(frozen=True, slots=True)
class Annotation:
    """One linked mention: a span plus the entity it refers to."""

    span: Span
    entity: EntityId

    def sort_key(self) -> tuple[int, int, str]:
        return (self.span.begin, self.span.end, self.entity.id)


@dataclass(frozen=True, slots=True)
class TokenSpan:
    """A token together with its character span in the owning text."""

    token_index: int
    span: Span
    surface: str


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
        ordered = sorted(self.gold, key=Annotation.sort_key)
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.span.overlaps(cur.span):
                raise InvalidSpan(
                    f"{self.doc_id}: gold spans ({prev.span.begin}, {prev.span.end}) and "
                    f"({cur.span.begin}, {cur.span.end}) overlap"
                )


def normalize_annotations(annotations: Iterable[Annotation]) -> list[Annotation]:
    """Sort annotations by (begin, end, entity) and drop exact duplicates.

    Idempotent; the output is a canonical ordering suitable for comparison
    and deterministic iteration.
    """
    ordered = sorted(annotations, key=Annotation.sort_key)
    out: list[Annotation] = []
    for ann in ordered:
        if not out or out[-1] != ann:
            out.append(ann)
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
