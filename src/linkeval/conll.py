"""CoNLL-style corpus reading and deterministic text reconstruction.

The input is UTF-8 text. Documents are delimited by lines starting with
``-DOCSTART-``; the document id is taken from a trailing ``(...)`` group
when present. Token lines carry whitespace-separated columns (tab-separated
when a tab is present) with a configurable layout: by default column 0 is
the surface, column 1 the B/I/O tag, and column 2 the entity id. Lines with
only a surface column are O tokens. Blank lines mark sentence boundaries.

The entity column value ``--NME--`` denotes a mention with no KB referent
and is mapped onto the None entity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import DanglingITag, EmptyCorpus, MalformedLine
from .model import (
    AnnotatedDocument,
    Annotation,
    EntityId,
    Span,
    TokenSpan,
    make_entity,
    read_utf8,
)

DOCSTART = "-DOCSTART-"

# Detokenization boundary classes: no space after a token ending with an
# opening bracket, no space before a token starting with closing punctuation.
_OPENERS = "([{"
_CLOSERS = ".,;:!?')]}"

_DOC_ID_RE = re.compile(r"\((.*?)\)")


@dataclass(frozen=True, slots=True)
class ConllToken:
    """One token line: surface form, B/I/O tag, optional entity."""

    surface: str
    bio_tag: str
    entity: EntityId | None = None

    def __post_init__(self) -> None:
        if self.bio_tag not in ("B", "I", "O"):
            raise ValueError(f"bio_tag must be B, I or O, got {self.bio_tag!r}")
        if self.bio_tag == "O" and self.entity is not None:
            raise ValueError("O tokens carry no entity")
        if self.bio_tag in ("B", "I") and self.entity is None:
            raise ValueError(f"{self.bio_tag} token requires an entity")
        if not self.surface:
            raise ValueError("token surface must be non-empty")


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

    def total_gold(self) -> int:
        return sum(len(d.gold) for d in self.documents)


def reconstruct_text(tokens: Sequence[str | ConllToken]) -> tuple[str, list[TokenSpan]]:
    """Join token surfaces into a single text and report each token's span.

    Tokens are separated by one space, except that no space is inserted
    before a token starting with closing punctuation (.,;:!?' or a closing
    bracket) or after a token ending with an opening bracket. Sentence
    boundaries do not affect spacing.
    """
    surfaces = [t.surface if isinstance(t, ConllToken) else t for t in tokens]
    pieces: list[str] = []
    token_spans: list[TokenSpan] = []
    pos = 0
    prev: str | None = None
    for index, surface in enumerate(surfaces):
        if not surface:
            raise MalformedLine(f"token {index} has an empty surface")
        if prev is not None and prev[-1] not in _OPENERS and surface[0] not in _CLOSERS:
            pieces.append(" ")
            pos += 1
        pieces.append(surface)
        token_spans.append(TokenSpan(index, Span(pos, pos + len(surface)), surface))
        pos += len(surface)
        prev = surface
    return "".join(pieces), token_spans


def _doc_id_from_header(line: str, ordinal: int) -> str:
    rest = line[len(DOCSTART):].strip()
    match = _DOC_ID_RE.search(rest)
    if match and match.group(1):
        return match.group(1)
    if rest:
        return rest
    return f"doc-{ordinal}"


class _DocBuilder:
    """Accumulates one document's tokens, then materializes it."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.tokens: list[ConllToken] = []
        # open mention run: (first token index, entity)
        self._run_start: int | None = None
        self._run_entity: EntityId | None = None
        self._runs: list[tuple[int, int, EntityId]] = []

    def add_token(self, token: ConllToken, line_number: int) -> None:
        index = len(self.tokens)
        if token.bio_tag == "I":
            if self._run_entity is None or token.entity != self._run_entity:
                raise DanglingITag(
                    f"I tag without a preceding B/I tag for the same entity ({token.surface!r})",
                    line_number,
                )
        else:
            self._close_run(index)
            if token.bio_tag == "B":
                self._run_start = index
                self._run_entity = token.entity
        self.tokens.append(token)

    def _close_run(self, end_index: int) -> None:
        if self._run_start is not None and self._run_entity is not None:
            self._runs.append((self._run_start, end_index, self._run_entity))
        self._run_start = None
        self._run_entity = None

    def build(self) -> AnnotatedDocument:
        self._close_run(len(self.tokens))
        text, token_spans = reconstruct_text(self.tokens)
        gold = [
            Annotation(Span(token_spans[first].span.begin, token_spans[last - 1].span.end), entity)
            for first, last, entity in self._runs
        ]
        return AnnotatedDocument(self.doc_id, text, gold=tuple(gold))


def parse_conll(
    data: bytes | str | IO[bytes],
    layout: ConllLayout = ConllLayout(),
    name: str = "corpus",
) -> Corpus:
    """Parse a CoNLL-style file into a corpus of annotated documents.

    Gold annotations are built from maximal B/I runs; their character spans
    come from the reconstructed text. Raises EmptyCorpus when the input
    contains no document headers.
    """
    text = read_utf8(data)
    needed = max(layout.surface_col, layout.bio_col) + 1
    documents: list[AnnotatedDocument] = []
    builder: _DocBuilder | None = None

    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.startswith(DOCSTART):
            if builder is not None:
                documents.append(builder.build())
            builder = _DocBuilder(_doc_id_from_header(line, len(documents)))
            continue
        if not line.strip():
            continue
        if builder is None:
            raise MalformedLine(f"token line before any {DOCSTART} header", line_number)

        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) == layout.surface_col + 1:
            token = ConllToken(fields[layout.surface_col], "O")
        else:
            if len(fields) < needed:
                raise MalformedLine(f"expected 1 or >={needed} columns, got {len(fields)}", line_number)
            bio = fields[layout.bio_col]
            if bio == "O":
                token = ConllToken(fields[layout.surface_col], "O")
            elif bio in ("B", "I"):
                if len(fields) <= layout.entity_col:
                    raise MalformedLine(f"{bio} token without an entity column", line_number)
                entity = make_entity(fields[layout.entity_col])
                token = ConllToken(fields[layout.surface_col], bio, entity)
            else:
                raise MalformedLine(f"unknown tag {bio!r}, expected B, I or O", line_number)
        builder.add_token(token, line_number)

    if builder is not None:
        documents.append(builder.build())
    if not documents:
        raise EmptyCorpus("no documents found in input")
    return Corpus(name=name, documents=tuple(documents))
