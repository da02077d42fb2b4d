"""CoNLL-style corpus reading and deterministic text reconstruction.

The input is UTF-8 text. Documents are delimited by lines starting with
``-DOCSTART-``; the document id is taken from a trailing ``(...)`` group
when present. Token lines carry whitespace-separated columns (tab-separated
when a tab is present) with a configurable layout: by default column 0 is
the surface, column 1 the B/I/O tag, and column 2 the entity id. Lines that
end at the surface column are O tokens when the tag column comes after it.
Blank lines mark sentence boundaries.

The entity column value ``--NME--`` denotes a mention with no KB referent
and is mapped onto the None entity.

The reader makes one pass over the lines, keeping a running character
offset. Every bad line is a MalformedLine naming its line number: too few
columns, an unknown tag, an empty surface, a missing or malformed entity
id, an I tag continuing no run of its entity (DanglingITag), a token line
before the first header, and a header repeating a document id.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import DanglingITag, EmptyCorpus, MalformedLine
from .model import (
    AnnotatedDocument,
    Annotation,
    Span,
    TokenSpan,
    make_entity,
    read_utf8,
)

DOCSTART = "-DOCSTART-"

_OPENERS = "([{"
_CLOSERS = ".,;:!?')]}"

_DOC_ID_RE = re.compile(r"\((.*?)\)")


@dataclass(frozen=True, slots=True)
class ConllLayout:
    """Column indices for token lines."""

    surface_col: int = 0
    bio_col: int = 1
    entity_col: int = 2


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of annotated documents with unique ids."""

    name: str
    documents: tuple[AnnotatedDocument, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        seen: set[str] = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise ValueError(f"duplicate document id {doc.doc_id!r}")
            seen.add(doc.doc_id)

    def __len__(self) -> int:
        return len(self.documents)


def _separator(before: str, surface: str) -> str:
    """The spacing rule: what goes between text ending with ``before`` ("" at the start) and the next surface."""
    if not before or before[-1] in _OPENERS or surface[0] in _CLOSERS:
        return ""
    return " "


def reconstruct_text(tokens: Sequence[str]) -> tuple[str, list[TokenSpan]]:
    """Join token surfaces into a single text and report each token's span.

    Tokens are separated by one space, except that no space is inserted
    before a token starting with closing punctuation (.,;:!?' or a closing
    bracket) or after a token ending with an opening bracket. Sentence
    boundaries do not affect spacing.
    """
    text = ""
    token_spans: list[TokenSpan] = []
    for index, surface in enumerate(tokens):
        if not surface:
            raise MalformedLine(f"token {index} has an empty surface")
        text += _separator(text, surface)
        token_spans.append(TokenSpan(index, Span(len(text), len(text) + len(surface)), surface))
        text += surface
    return text, token_spans


def _doc_id_from_header(line: str, ordinal: int) -> str:
    rest = line[len(DOCSTART):].strip()
    match = _DOC_ID_RE.search(rest)
    if match and match.group(1):
        return match.group(1)
    if rest:
        return rest
    return f"doc-{ordinal}"


def _document(doc_id: str, pieces: list[str], mentions: list[list]) -> AnnotatedDocument:
    gold = tuple(Annotation(Span(begin, end), entity) for begin, end, entity in mentions)
    return AnnotatedDocument(doc_id, "".join(pieces), gold=gold)


def parse_conll(
    data: bytes | str | IO[bytes],
    layout: ConllLayout = ConllLayout(),
    name: str = "corpus",
) -> Corpus:
    """Parse a CoNLL-style file into a corpus of annotated documents.

    Gold annotations are the character spans of maximal B/I runs in the
    reconstructed text. Raises EmptyCorpus when the input contains no
    document headers.
    """
    text = read_utf8(data)
    surface_col, bio_col, entity_col = layout.surface_col, layout.bio_col, layout.entity_col
    needed = max(surface_col, bio_col) + 1
    # a line that ends at the surface column is a bare O token only if the tag column comes later
    bare = surface_col + 1 if bio_col > surface_col else None
    expected = f"expected {bare} or >={needed} columns" if bare else f"expected >={needed} columns"
    documents: list[AnnotatedDocument] = []
    doc_ids: set[str] = set()
    doc_id: str | None = None

    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.startswith(DOCSTART):
            if doc_id is not None:
                documents.append(_document(doc_id, pieces, mentions))
            doc_id = _doc_id_from_header(line, len(documents))
            if doc_id in doc_ids:
                raise MalformedLine(f"duplicate document id {doc_id!r}", line_number)
            doc_ids.add(doc_id)
            # the text's pieces, [begin, end, entity] per B/I run (an I tag moves the last end),
            # the running offset, the previous surface and the open run's raw entity column
            pieces, mentions, pos, prev, run = [], [], 0, "", None
            continue
        if not line.strip():
            continue
        if doc_id is None:
            raise MalformedLine(f"token line before any {DOCSTART} header", line_number)

        fields = line.split("\t") if "\t" in line else line.split()
        tag = "O"
        if len(fields) != bare:
            if len(fields) < needed:
                raise MalformedLine(f"{expected}, got {len(fields)}", line_number)
            tag = fields[bio_col]
            if tag == "B" or tag == "I":
                if len(fields) <= entity_col:
                    raise MalformedLine(f"{tag} token without an entity column", line_number)
                raw = fields[entity_col]
                if raw != run or tag == "B":
                    try:
                        entity = make_entity(raw)
                    except ValueError as exc:
                        raise MalformedLine(str(exc), line_number) from exc
            elif tag != "O":
                raise MalformedLine(f"unknown tag {tag!r}, expected B, I or O", line_number)
        surface = fields[surface_col]
        if not surface:
            raise MalformedLine("token surface must be non-empty", line_number)
        if tag == "I" and raw != run:
            raise DanglingITag(f"I tag without a preceding B/I tag for the same entity ({surface!r})", line_number)

        separator = _separator(prev, surface)
        begin = pos + len(separator)
        pos = begin + len(surface)
        pieces += (separator, surface)
        prev = surface
        if tag == "B":
            mentions.append([begin, pos, entity])
            run = raw
        elif tag == "I":
            mentions[-1][1] = pos
        else:
            run = None

    if doc_id is not None:
        documents.append(_document(doc_id, pieces, mentions))
    if not documents:
        raise EmptyCorpus("no documents found in input")
    return Corpus(name=name, documents=tuple(documents))
