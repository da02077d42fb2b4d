"""Independent reference implementations used to pin semantics in tests.

These are deliberately written against the documented rules with plain
nested loops and no imports from the package internals beyond the value
types, so a bug in the production code cannot hide in a shared helper.
The token-merge oracle also takes its tokens and candidate sets from the
package, whose own oracles and tests pin them.
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
    CandidateMode,
    CandidatePolicy,
    CoherenceParams,
    ConllLayout,
    Corpus,
    EntityId,
    EmbeddingTable,
    EntityTrie,
    Span,
    TokenSpan,
    candidates_for,
    make_entity,
    score_candidates,
    tokenize,
)
from linkeval.errors import DanglingITag, EmptyCorpus, LengthMismatch, MalformedLine, PriorOutOfRange


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


def _oracle_segments(text: str, max_tokens: int) -> list[tuple[int, int, list[TokenSpan]]]:
    """(begin, end, tokens) of each segment the annotate chain cuts text into.

    The document's tokens (oracle_tokenize) choose the cuts. A document of
    at most max_tokens tokens is one segment, the whole text. Otherwise
    cuts are greedy: at most max_tokens tokens per segment, after the last
    "." "!" or "?" token of the window, else at its edge; a segment runs
    from its first token's begin to its last token's end.
    """
    tokens = oracle_tokenize(text)
    if len(tokens) <= max_tokens:
        return [(0, len(text), tokens)]
    segments = []
    start = 0
    while start < len(tokens):
        cut = min(start + max_tokens, len(tokens))
        if cut < len(tokens):
            for i in range(cut - 1, start - 1, -1):
                if tokens[i].surface in (".", "!", "?"):
                    cut = i + 1
                    break
        segments.append((tokens[start].span.begin, tokens[cut - 1].span.end, tokens[start:cut]))
        start = cut
    return segments


def _oracle_chain(
    text: str, max_tokens: int, link: Callable[[str, list[tuple[int, int]]], list[Annotation]]
) -> list[Annotation]:
    """Call link(segment_text, segment_tokens) per segment and shift its annotations back."""
    annotations: set[Annotation] = set()
    for begin, end, tokens in _oracle_segments(text, max_tokens):
        offsets = [(t.span.begin - begin, t.span.end - begin) for t in tokens]
        for ann in link(text[begin:end], offsets):
            annotations.add(Annotation(Span(ann.span.begin + begin, ann.span.end + begin), ann.entity))
    return sorted(annotations, key=_key)


def oracle_annotate(text: str, linker: Callable[[str], list[Annotation]], max_tokens: int) -> list[Annotation]:
    """The annotate chain with a text-only linker, which tokenizes each segment's text itself."""
    return _oracle_chain(text, max_tokens, lambda segment, tokens: linker(segment))


def oracle_annotate_on_document_tokens(
    text: str, linker: Callable[..., list[Annotation]], max_tokens: int
) -> list[Annotation]:
    """The annotate chain with a token-fed linker.

    The linker gets each segment's text and, as ``tokens=``, the segment's
    slice of the document's tokens shifted to the segment.
    """
    return _oracle_chain(text, max_tokens, lambda segment, tokens: linker(segment, tokens=tokens))


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


def oracle_link_eagerly(
    text: str,
    policy: CandidatePolicy,
    max_span_tokens: int,
    rerank: tuple[EmbeddingTable, CoherenceParams, int] | None = None,
) -> list[Annotation]:
    """The span linkers' eager walk: pick for every window, then resolve overlaps.

    Every window of 1..max_span_tokens tokens of tokenize(text) looks its
    surface up with candidates_for. Without ``rerank`` a window scores its
    candidates by prior (link_prior_argmax). With ``rerank = (embeddings,
    params, top_p)`` it scores its top_p first candidates with
    score_candidates, over its own words and the params.context_window
    words on each side (link_coherence_rerank). The highest score wins,
    ties going to the smallest id; a window without candidates, or whose
    winner is the None entity, picks nothing.
    """
    spans = [token.span for token in tokenize(text)]
    words = [text[span.begin:span.end] for span in spans]
    picked: list[tuple[Span, EntityId]] = []
    for first in range(len(spans)):
        for last in range(first + 1, min(first + max_span_tokens, len(spans)) + 1):
            span = Span(spans[first].begin, spans[last - 1].end)
            scored = list(candidates_for(text[span.begin:span.end], policy).candidates)
            if rerank is not None and scored:
                embeddings, params, top_p = rerank
                reach = params.context_window
                context = words[max(0, first - reach):first] + words[last:last + reach]
                scored = score_candidates(words[first:last], context, scored[:top_p], embeddings, params)
            if scored:
                best = min(scored, key=lambda pair: (-pair[1], pair[0].id))[0]
                if not best.is_none:
                    picked.append((span, best))
    return oracle_resolve_overlaps(picked)


def oracle_enumerate_token_windows(
    tokens: Sequence[tuple[int, int]],
    max_length: int,
    *,
    text: str,
    policy: CandidatePolicy,
) -> list[tuple[int, int, int, int]]:
    """The per-window prefix walk: grow each start token's window while its surface may prefix a key.

    Returns (begin, end, first_token, last_token_exclusive) in (start,
    length) order. Under the dictionary policy a surface may prefix a key
    when some lowercase alias key, folded like the surface (str.lower, then
    final sigma to sigma), starts with the folded surface; every key is
    tried. The full policy keeps every window and the empty policy none.
    """

    def fold(surface: str) -> str:
        return surface.lower().replace("ς", "σ")

    keys = [fold(key) for key in policy.dictionary.lowercase_index] if policy.dictionary is not None else []

    def may_prefix(surface: str) -> bool:
        if policy.mode is CandidateMode.DICTIONARY:
            return any(key.startswith(fold(surface)) for key in keys)
        return policy.mode is CandidateMode.FULL_VOCABULARY

    windows: list[tuple[int, int, int, int]] = []
    for start, (begin, _) in enumerate(tokens):
        for stop in range(start + 1, min(start + max_length, len(tokens)) + 1):
            end = tokens[stop - 1][1]
            if not may_prefix(text[begin:end]):
                break
            windows.append((begin, end, start, stop))
    return windows


def oracle_normalize_annotations(annotations: Iterable[Annotation]) -> list[Annotation]:
    """Stable sort by (begin, end, entity id); drop an annotation equal to the last one kept."""
    ordered = sorted(annotations, key=lambda a: (a.span.begin, a.span.end, a.entity.id))
    out: list[Annotation] = []
    for ann in ordered:
        if not out or out[-1] != ann:
            out.append(ann)
    return out


@dataclass(frozen=True)
class TokenPrediction:
    """Per-token entity hypotheses, strongest first. None means no link."""

    token_index: int
    top_k: tuple[tuple[EntityId | None, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "top_k", tuple(self.top_k))
        if not self.top_k:
            raise ValueError("top_k must contain at least one entry")
        scores = [s for _, s in self.top_k]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("top_k must be sorted by descending score")


def merge_token_predictions(
    predictions: Sequence[TokenPrediction],
    tokens: Sequence[TokenSpan],
    policy: CandidatePolicy,
) -> list[Annotation]:
    """Turn per-token predictions into span annotations.

    Entity entries outside the token's policy candidates are dropped (a
    None entry always survives); the strongest surviving entry wins. Runs
    of adjacent tokens that agree on the same non-None entity become one
    annotation covering the whole run.
    """
    if len(predictions) != len(tokens):
        raise LengthMismatch(f"{len(predictions)} predictions but {len(tokens)} tokens")
    choices: list[EntityId | None] = []
    for prediction, token in zip(predictions, tokens):
        allowed = {entity for entity, _ in candidates_for(token.surface, policy)}
        choice: EntityId | None = None
        for entity, _score in prediction.top_k:
            if entity is None or entity.is_none:
                break
            if entity in allowed:
                choice = entity
                break
        choices.append(choice)
    annotations: list[Annotation] = []
    start = 0
    for i in range(1, len(choices) + 1):
        if i == len(choices) or choices[i] != choices[start]:
            if choices[start] is not None:
                annotations.append(Annotation(Span(tokens[start].span.begin, tokens[i - 1].span.end), choices[start]))
            start = i
    return sorted(annotations, key=_key)


def hypotheses_then_merge(text: str, policy: CandidatePolicy) -> list[Annotation]:
    """link_token_merge spelled out: every token's full hypothesis list, then merge_token_predictions.

    A token's hypotheses are its non-None candidates scored by prior plus
    a no-link entry carrying the leftover prior mass, strongest first; on
    a tie the candidate, listed first, stays ahead.
    """
    tokens = tokenize(text)
    predictions = []
    for token in tokens:
        entries = [(e, p) for e, p in candidates_for(token.surface, policy) if not e.is_none]
        entries.append((None, max(0.0, 1.0 - sum(p for _, p in entries))))
        entries.sort(key=lambda e: -e[1])
        predictions.append(TokenPrediction(token.token_index, tuple(entries)))
    return merge_token_predictions(predictions, tokens, policy)


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


AliasIndex = dict[str, tuple[tuple[EntityId, float], ...]]


def _oracle_rank(pairs: Iterable[tuple[EntityId, float]]) -> tuple[tuple[EntityId, float], ...]:
    return tuple(sorted(pairs, key=lambda c: (-c[1], c[0].id)))


def oracle_alias_dictionary_from_pairs(pairs: Iterable[tuple[str, EntityId, float]]) -> tuple[AliasIndex, AliasIndex]:
    """(entries, lowercase_index) the way ``AliasDictionary.from_pairs`` built them in two passes.

    Check every pair's prior in input order, group at the highest prior
    per (mention, entity), rank every mention, check each candidate's
    prior and then the mention's sum in ranked order, then merge every
    mention's ranked candidates into its ``str.lower`` key at the highest
    prior and rank every key again.
    """
    grouped: dict[str, dict[EntityId, float]] = {}
    for mention, entity, prior in pairs:
        if not (0.0 <= prior <= 1.0):
            raise PriorOutOfRange(f"{mention!r} -> {entity.id}: prior {prior} outside [0, 1]")
        bucket = grouped.setdefault(mention, {})
        if prior > bucket.get(entity, -1.0):
            bucket[entity] = prior
    entries = {m: _oracle_rank(bucket.items()) for m, bucket in grouped.items()}
    for mention, cands in entries.items():
        total = 0.0
        for entity, prior in cands:
            if not (0.0 <= prior <= 1.0):
                raise PriorOutOfRange(f"{mention!r} -> {entity.id}: prior {prior} outside [0, 1]")
            total += prior
        if total > 1.0 + 1e-9:
            raise PriorOutOfRange(f"{mention!r}: priors sum to {total}, above 1")
    lowered: dict[str, dict[EntityId, float]] = {}
    for mention, cands in entries.items():
        bucket = lowered.setdefault(mention.lower(), {})
        for entity, prior in cands:
            if prior > bucket.get(entity, -1.0):
                bucket[entity] = prior
    return entries, {m: _oracle_rank(bucket.items()) for m, bucket in lowered.items()}


def oracle_load_alias_dictionary(text: str) -> tuple[AliasIndex, AliasIndex]:
    """(entries, lowercase_index) of an alias TSV, by the row-list loader.

    Every row becomes a (mention, entity, prior) triple, checked line by
    line, and the list goes to oracle_alias_dictionary_from_pairs.
    """
    pairs: list[tuple[str, EntityId, float]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(f"expected 3 tab-separated fields, got {len(fields)}", number)
        mention, entity_id, prior_text = fields
        if not mention or not entity_id.strip():
            raise MalformedLine("mention and entity must be non-empty", number)
        try:
            prior = float(prior_text)
        except ValueError as exc:
            raise MalformedLine(f"prior {prior_text!r} is not a number", number) from exc
        if not (0.0 <= prior <= 1.0):
            raise PriorOutOfRange(f"line {number}: prior {prior} outside [0, 1]")
        pairs.append((mention, make_entity(entity_id.strip()), prior))
    return oracle_alias_dictionary_from_pairs(pairs)


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
    surface_only = layout.bio_col > layout.surface_col
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
        if surface_only and len(fields) == layout.surface_col + 1:
            token = ConllToken(fields[layout.surface_col], "O")
        else:
            if len(fields) < needed:
                accepted = f"{layout.surface_col + 1} or >={needed}" if surface_only else f">={needed}"
                raise MalformedLine(f"expected {accepted} columns, got {len(fields)}", line_number)
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
