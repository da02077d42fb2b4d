"""Independent reference implementations used to pin semantics in tests.

These are deliberately written against the documented rules with plain
nested loops and no imports from the package internals beyond the value
types, so a bug in the production code cannot hide in a shared helper.
"""

from __future__ import annotations

import hashlib
import re
import string
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from linkeval import (
    AnnotatedDocument,
    Annotation,
    ConllLayout,
    Corpus,
    EntityId,
    EntityTrie,
    Span,
    TokenSpan,
    make_entity,
)
from linkeval.errors import DanglingITag, EmptyCorpus, MalformedLine


def _inkb(ann: Annotation, vocabulary: set[EntityId] | frozenset[EntityId]) -> bool:
    return (not ann.entity.is_none) and (ann.entity in vocabulary)


def _key(ann: Annotation) -> tuple[int, int, str]:
    return (ann.span.begin, ann.span.end, ann.entity.id)


def _clean(annotations: Iterable[Annotation], vocabulary) -> list[Annotation]:
    unique: dict[tuple[int, int, str], Annotation] = {}
    for ann in annotations:
        if _inkb(ann, vocabulary):
            unique[_key(ann)] = ann
    return [unique[k] for k in sorted(unique)]


def _overlap(a: Span, b: Span) -> bool:
    return a.begin < b.end and b.begin < a.end


def oracle_classify(
    gold: Sequence[Annotation],
    predicted: Sequence[Annotation],
    vocabulary: set[EntityId] | frozenset[EntityId],
) -> dict[str, tuple | int]:
    """Brute-force five-pass classification, keyed like MatchResult's fields.

    Both sides are cleaned (in-KB only, deduplicated, ordered by begin, end
    and entity id). Every prediction category lists its predictions in that
    order; true positives pair (gold, prediction); under-generated golds
    follow gold order.
    """
    golds = _clean(gold, vocabulary)
    preds = _clean(predicted, vocabulary)
    gold_taken = [False] * len(golds)
    label: dict[int, str] = {}
    pairs: dict[int, tuple[Annotation, Annotation]] = {}

    for p_i, p in enumerate(preds):
        for g_i, g in enumerate(golds):
            if not gold_taken[g_i] and g.span == p.span and g.entity == p.entity:
                label[p_i] = "tp"
                pairs[p_i] = (g, p)
                gold_taken[g_i] = True
                break

    for p_i, p in enumerate(preds):
        if p_i in label:
            continue
        for g_i, g in enumerate(golds):
            if not gold_taken[g_i] and g.span == p.span and g.entity != p.entity:
                label[p_i] = "incorrect_entity"
                break

    for p_i, p in enumerate(preds):
        if p_i in label:
            continue
        for g_i, g in enumerate(golds):
            if not gold_taken[g_i] and g.entity == p.entity and _overlap(g.span, p.span):
                label[p_i] = "incorrect_mention"
                break

    for p_i in range(len(preds)):
        label.setdefault(p_i, "over_generated")

    under: list[Annotation] = []
    for g_i, g in enumerate(golds):
        if gold_taken[g_i]:
            continue
        if not any(_overlap(g.span, p.span) for p in preds):
            under.append(g)

    def labelled(category: str) -> tuple[Annotation, ...]:
        return tuple(p for p_i, p in enumerate(preds) if label[p_i] == category)

    return {
        "true_positives": tuple(pairs.values()),  # filled in prediction order
        "incorrect_entity": labelled("incorrect_entity"),
        "incorrect_mention": labelled("incorrect_mention"),
        "over_generated": labelled("over_generated"),
        "under_generated": tuple(under),
        "gold_count": len(golds),
        "pred_count": len(preds),
    }


def oracle_match(
    gold: Sequence[Annotation],
    predicted: Sequence[Annotation],
    vocabulary: set[EntityId] | frozenset[EntityId],
) -> Mapping[str, int]:
    """Brute-force five-pass classification. Returns category counts."""
    classified = oracle_classify(gold, predicted, vocabulary)
    return {
        "tp": len(classified["true_positives"]),
        "incorrect_entity": len(classified["incorrect_entity"]),
        "incorrect_mention": len(classified["incorrect_mention"]),
        "over_generated": len(classified["over_generated"]),
        "under_generated": len(classified["under_generated"]),
        "gold_count": classified["gold_count"],
        "pred_count": classified["pred_count"],
    }


def oracle_resolve_overlaps(picked: Sequence[tuple[Span, EntityId]]) -> list[Annotation]:
    """Greedy overlap resolution by the documented rule, with nested loops.

    Candidates are tried longest first, then earliest begin, then smallest
    entity id; one is kept when it overlaps no span kept before it. The
    result is ordered by (begin, end, entity id).
    """
    order = sorted(picked, key=lambda p: (p[0].begin - p[0].end, p[0].begin, p[1].id))
    kept: list[Annotation] = []
    for span, entity in order:
        clashes = False
        for other in kept:
            if _overlap(span, other.span):
                clashes = True
                break
        if not clashes:
            kept.append(Annotation(span, entity))
    return sorted(kept, key=_key)


def oracle_tokenize(text: str) -> list[TokenSpan]:
    """The tokenizer's rules as a per-character walk.

    Chunks are maximal runs of characters that are not ``str.isspace``.
    Leading and trailing ASCII punctuation is detached one character per
    token. The rest splits at interior apostrophes: before the "n" of
    "n't", else before the apostrophe.
    """
    punct = set(string.punctuation)
    tokens: list[TokenSpan] = []

    def emit(begin: int, piece: str) -> None:
        tokens.append(TokenSpan(len(tokens), Span(begin, begin + len(piece)), piece))

    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        start = pos
        while pos < len(text) and not text[pos].isspace():
            pos += 1
        chunk = text[start:pos]
        left, right = 0, len(chunk)
        while left < right and chunk[left] in punct:
            left += 1
        while right > left and chunk[right - 1] in punct:
            right -= 1
        for offset in range(left):
            emit(start + offset, chunk[offset])
        core = chunk[left:right]
        prev = 0
        for i in range(1, len(core) - 1):
            if core[i] not in ("'", "’"):
                continue
            cut = i - 1 if (core[i - 1] in "nN" and core[i + 1] in "tT") else i
            if cut > prev:
                emit(start + left + prev, core[prev:cut])
                prev = cut
        if core:
            emit(start + left + prev, core[prev:])
        for offset in range(right, len(chunk)):
            emit(start + offset, chunk[offset])
    return tokens


def oracle_link_prior_argmax(
    text: str,
    token_spans: Sequence[Span],
    rows: Sequence[tuple[str, EntityId, float]],
    max_span_tokens: int,
) -> list[Annotation]:
    """Dictionary-policy prior argmax over alias rows (mention, entity, prior).

    Every window of 1..max_span_tokens tokens looks its surface up: rows
    whose mention equals it, else rows whose lowercased mention equals its
    lowercase form. An entity listed twice counts with its highest prior.
    The highest prior wins, ties going to the smallest id; a span whose
    winner is the None entity, or that has no rows, picks nothing.
    """
    picked: list[tuple[Span, EntityId]] = []
    for start in range(len(token_spans)):
        for length in range(1, max_span_tokens + 1):
            if start + length > len(token_spans):
                break
            span = Span(token_spans[start].begin, token_spans[start + length - 1].end)
            surface = text[span.begin:span.end]
            matching = [(e, p) for m, e, p in rows if m == surface]
            if not matching:
                matching = [(e, p) for m, e, p in rows if m.lower() == surface.lower()]
            best: tuple[EntityId, float] | None = None
            for entity, prior in matching:
                top = max(p for e, p in matching if e == entity)
                if best is None or top > best[1] or (top == best[1] and entity.id < best[0].id):
                    best = (entity, top)
            if best is not None and not best[0].is_none:
                picked.append((span, best[0]))
    return oracle_resolve_overlaps(picked)


def greedy_decode(score_next: Callable[[str, str | None], float], trie: EntityTrie) -> str:
    """Step-local argmax walk; stops the first time closing wins the step.

    Tie rule matches the beam implementation: on an exact score tie the
    terminal option wins, then the smallest symbol.
    """
    prefix = ""
    while True:
        options = trie.next_symbols(prefix)
        assert options, f"dead end at {prefix!r}"
        best = min(options, key=lambda s: (-score_next(prefix, s), s is not None, s or ""))
        if best is None:
            return prefix
        prefix += best


def hash_scorer(seed: int) -> Callable[[str, str | None], float]:
    """Deterministic pseudo-random step scores in [-1, 1], call-order free."""

    def score_next(prefix: str, symbol: str | None) -> float:
        token = "<eos>" if symbol is None else symbol
        digest = hashlib.md5(f"{seed}|{prefix}|{token}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**63 - 1.0

    return score_next


_DOCSTART = "-DOCSTART-"
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


def _oracle_reconstruct(tokens: Sequence[ConllToken]) -> tuple[str, list[Span]]:
    """Join surfaces with one space, none after ``([{`` or before ``.,;:!?')]}``."""
    pieces: list[str] = []
    spans: list[Span] = []
    pos = 0
    prev: str | None = None
    for token in tokens:
        surface = token.surface
        if prev is not None and prev[-1] not in _OPENERS and surface[0] not in _CLOSERS:
            pieces.append(" ")
            pos += 1
        pieces.append(surface)
        spans.append(Span(pos, pos + len(surface)))
        pos += len(surface)
        prev = surface
    return "".join(pieces), spans


def _oracle_doc_id(line: str, ordinal: int) -> str:
    rest = line[len(_DOCSTART):].strip()
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
        text, spans = _oracle_reconstruct(self.tokens)
        gold = [
            Annotation(Span(spans[first].begin, spans[last - 1].end), entity)
            for first, last, entity in self._runs
        ]
        return AnnotatedDocument(self.doc_id, text, gold=tuple(gold))


def oracle_parse_conll(text: str, layout: ConllLayout = ConllLayout(), name: str = "corpus") -> Corpus:
    """The CoNLL reader as a validated token object per line and a builder per document.

    A token line's columns are checked when its ConllToken is built (a bare
    ValueError for an empty surface or a bad entity id), a dangling I tag
    when the token is added, and duplicate document ids only when the
    Corpus is built, after every line has been read.
    """
    needed = max(layout.surface_col, layout.bio_col) + 1
    documents: list[AnnotatedDocument] = []
    builder: _DocBuilder | None = None

    for line_number, line in enumerate(text.splitlines(), start=1):
        if line.startswith(_DOCSTART):
            if builder is not None:
                documents.append(builder.build())
            builder = _DocBuilder(_oracle_doc_id(line, len(documents)))
            continue
        if not line.strip():
            continue
        if builder is None:
            raise MalformedLine(f"token line before any {_DOCSTART} header", line_number)

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
