"""Reference linkers at desk scale.

Three self-contained linking strategies share the same shape: plain text
in, a list of non-overlapping annotations out.

* link_prior_argmax tries token spans longest first, then earliest, looks
  up candidates for each span no kept span overlaps and keeps the
  highest-prior entity.
* link_coherence_rerank tries spans in the same order and re-scores the
  top candidates of each with embedding similarity plus a context
  coherence term.
* link_token_merge builds per-token predictions from candidate priors and
  merges adjacent tokens that agree.

constrained_beam_decode is the building block for generative linkers: a
beam search over an entity trie driven by an injected scoring callback, so
the output is always a known entity id.

numpy is imported only by the code that builds or scores embedding vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .adapters import tokenize
from .candidates import Candidate, CandidatePolicy, EntityTrie, candidates_for
from .errors import DimensionMismatch, EmptyTrie, MalformedLine
from .model import Annotation, EntityId, Span, TokenSpan, normalize_annotations, read_utf8

if TYPE_CHECKING:
    import numpy as np

Tokenizer = Callable[[str], list[TokenSpan]]
Offsets = Sequence[tuple[int, int]]
Window = tuple[int, int, int, int]  # begin, end, first token, last token exclusive
ScoreNext = Callable[[str, "str | None"], float]

DEFAULT_MAX_SPAN_TOKENS = 5
DEFAULT_TOP_P = 30
DEFAULT_CONTEXT_WINDOW = 25


@dataclass(frozen=True)
class EmbeddingTable:
    """Fixed word and entity vectors, all with one shared dimension."""

    dimension: int
    vectors: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dimension}")
        for key, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise DimensionMismatch(f"vector {key!r} has shape {vec.shape}, expected ({self.dimension},)")

    def vector(self, key: EntityId | str) -> np.ndarray | None:
        return self.vectors.get(key.id if isinstance(key, EntityId) else key)

    @classmethod
    def empty(cls, dimension: int = 1) -> "EmbeddingTable":
        return cls(dimension=dimension, vectors={})


def load_embeddings(data: bytes | str | IO[bytes]) -> EmbeddingTable:
    """Load ``key<TAB>v1 v2 ... vd`` lines into an embedding table.

    Only blank lines are skipped: a key may start with ``#``. Every
    component must be a finite number.
    """
    import numpy as np

    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for number, line in enumerate(read_utf8(data).splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, rest = line.partition("\t")
        if not sep or not key:
            raise MalformedLine("expected key<TAB>values", number)
        try:
            vec = np.asarray([float(x) for x in rest.split()], dtype=np.float64)
        except ValueError as exc:
            raise MalformedLine(f"non-numeric vector component: {exc}", number) from exc
        if vec.size == 0:
            raise MalformedLine("empty vector", number)
        if not np.isfinite(vec).all():
            raise MalformedLine(f"non-finite vector component for {key!r}", number)
        if dimension is None:
            dimension = int(vec.size)
        elif vec.size != dimension:
            raise DimensionMismatch(f"line {number}: vector for {key!r} has {vec.size} components, expected {dimension}")
        vec.flags.writeable = False
        vectors[key] = vec
    if dimension is None:
        raise MalformedLine("no vectors in input")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


@dataclass(frozen=True)
class CoherenceParams:
    """Weights for the context coherence score.

    ``bilinear`` is a square matrix applied inside a per-word quadratic
    form; ``word_weights`` scales each context word's contribution (words
    missing from the map contribute nothing). ``context_window`` is the
    number of tokens considered on each side of a span.
    """

    bilinear: np.ndarray
    word_weights: Mapping[str, float] = field(default_factory=dict)
    context_window: int = DEFAULT_CONTEXT_WINDOW

    def __post_init__(self) -> None:
        import numpy as np

        mat = np.asarray(self.bilinear, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"bilinear matrix must be square, got shape {mat.shape}")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        object.__setattr__(self, "bilinear", mat)

    @classmethod
    def zeros(cls, dimension: int, context_window: int = DEFAULT_CONTEXT_WINDOW) -> "CoherenceParams":
        import numpy as np

        return cls(bilinear=np.zeros((dimension, dimension)), word_weights={}, context_window=context_window)


def coherence_score(
    context_tokens: Sequence[str],
    embeddings: EmbeddingTable,
    params: CoherenceParams,
) -> float:
    """Sum of weighted quadratic forms over context words with embeddings.

    The value depends only on the context, so every candidate of a span
    gets the same coherence term.
    """
    if params.bilinear.shape != (embeddings.dimension, embeddings.dimension):
        raise DimensionMismatch(
            f"bilinear matrix shape {params.bilinear.shape} does not match embedding dimension {embeddings.dimension}"
        )
    total = 0.0
    for word in context_tokens:
        vec = embeddings.vector(word)
        if vec is None:
            continue
        weight = params.word_weights.get(word, 0.0)
        if weight == 0.0:
            continue
        total += weight * float(vec @ params.bilinear @ vec)
    return total


def enumerate_token_windows(
    tokens: Offsets,
    max_length: int = DEFAULT_MAX_SPAN_TOKENS,
    *,
    text: str,
    policy: CandidatePolicy,
) -> list[Window]:
    """Contiguous token windows of 1..max_length tokens that may have candidates.

    ``tokens`` are (begin, end) character offsets into ``text``, in text
    order. Returns (begin, end, first_token, last_token_exclusive) tuples
    in (start, length) lexicographic order. A window is kept while
    ``policy.prefix_windows`` counts it, so the windows left out are
    exactly those no candidate can start with; the full policy keeps every
    window.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    out: list[Window] = []
    for start, count in enumerate(policy.prefix_windows(text, tokens, max_length)):
        if count:
            begin = tokens[start][0]
            for stop in range(start + 1, start + count + 1):
                out.append((begin, tokens[stop - 1][1], start, stop))
    return out


def _offsets(doc_text: str, tokens: Offsets | None, tokenizer: Tokenizer) -> Offsets:
    """The token offsets a linker was handed, else those of tokenizer(doc_text)."""
    if tokens is not None:
        return tokens
    return [(token.span.begin, token.span.end) for token in tokenizer(doc_text)]


def _keep_greedily(windows: Sequence[Window], pick: Callable[[int, int, int, int], EntityId | None]) -> list[Annotation]:
    """Greedy overlap resolution that picks only for windows it could keep.

    Windows, each a distinct span, are tried longest first, then earliest.
    pick(*window) runs only for a window that no kept span overlaps; the
    window is kept when it returns an entity other than the None entity. A
    window overlapping a kept span could never be kept, so this equals
    picking every window and resolving overlaps afterwards. Half-open spans
    overlap iff they share a character, so one flag per covered character
    decides each window.
    """
    covered = bytearray(max((window[1] for window in windows), default=0))
    kept: list[Annotation] = []
    for _, begin, end, first, last in sorted((window[0] - window[1], *window) for window in windows):
        if covered.find(1, begin, end) == -1:
            entity = pick(begin, end, first, last)
            if entity is not None and not entity.is_none:
                covered[begin:end] = b"\x01" * (end - begin)
                kept.append(Annotation(Span(begin, end), entity))
    return normalize_annotations(kept)


def _argmax_candidate(candidates: Sequence[tuple[EntityId, float]]) -> tuple[EntityId, float] | None:
    best: tuple[EntityId, float] | None = None
    for entity, score in candidates:
        if best is None or score > best[1] or (score == best[1] and entity.id < best[0].id):
            best = (entity, score)
    return best


def link_prior_argmax(
    doc_text: str,
    policy: CandidatePolicy,
    max_span_tokens: int = DEFAULT_MAX_SPAN_TOKENS,
    *,
    tokenizer: Tokenizer = tokenize,
    tokens: Offsets | None = None,
) -> list[Annotation]:
    """Link by picking the highest-prior candidate for token spans.

    Windows are tried longest first, then earliest, and a window is looked
    up only while no span kept before it overlaps it; windows the policy's
    prefix test rules out are never looked up. A window's pick is the first
    of its ranked candidate set, ties having gone to the smallest id, so no
    window costs time per candidate. A window with no candidates, or whose
    best candidate is the None entity, is not kept.

    ``tokens``, when given, are doc_text's (begin, end) token offsets, as
    a Segment carries them, and tokenizer is not called; the other linkers
    take them the same way.
    """
    tokens = _offsets(doc_text, tokens, tokenizer)

    def pick(begin: int, end: int, _first: int, _last: int) -> EntityId | None:
        candidates = candidates_for(doc_text[begin:end], policy).candidates
        # ranked by (-prior, id), so the first candidate is the argmax
        return candidates[0][0] if candidates else None

    return _keep_greedily(enumerate_token_windows(tokens, max_span_tokens, text=doc_text, policy=policy), pick)


def score_candidates(
    mention_words: Sequence[str],
    context_words: Sequence[str],
    candidates: Sequence[tuple[EntityId, float]],
    embeddings: EmbeddingTable,
    params: CoherenceParams,
) -> list[tuple[EntityId, float]]:
    """Score every given candidate: prior + similarity + context coherence.

    The similarity term is the dot product between the mean vector of the
    mention words and the entity vector; either side missing contributes
    zero. Returns one (entity, score) pair per input candidate, in order.
    """
    import numpy as np

    mention_vecs = [v for v in (embeddings.vector(w) for w in mention_words) if v is not None]
    mention_vec = np.mean(mention_vecs, axis=0) if mention_vecs else None
    context_term = coherence_score(context_words, embeddings, params)
    scored: list[tuple[EntityId, float]] = []
    for entity, prior in candidates:
        entity_vec = embeddings.vector(entity)
        similarity = float(mention_vec @ entity_vec) if mention_vec is not None and entity_vec is not None else 0.0
        scored.append((entity, prior + similarity + context_term))
    return scored


def link_coherence_rerank(
    doc_text: str,
    policy: CandidatePolicy,
    embeddings: EmbeddingTable,
    params: CoherenceParams,
    top_p: int = DEFAULT_TOP_P,
    max_span_tokens: int = DEFAULT_MAX_SPAN_TOKENS,
    *,
    tokenizer: Tokenizer = tokenize,
    tokens: Offsets | None = None,
) -> list[Annotation]:
    """Link like link_prior_argmax but re-score the top candidates.

    Windows are tried in link_prior_argmax's order, and a window is scored
    only while no kept span overlaps it. Only its top_p highest-prior
    candidates are scored. With all vectors absent and all word weights
    zero the scores collapse to the priors, and the output equals
    link_prior_argmax's.
    """
    if top_p < 1:
        raise ValueError(f"top_p must be >= 1, got {top_p}")
    tokens = _offsets(doc_text, tokens, tokenizer)
    window = params.context_window

    def pick(begin: int, end: int, first: int, last: int) -> EntityId | None:
        pool = candidates_for(doc_text[begin:end], policy).candidates[:top_p]
        if not pool:
            return None
        context = [doc_text[b:e] for b, e in tokens[max(0, first - window):first]]
        context += [doc_text[b:e] for b, e in tokens[last:last + window]]
        mention_words = [doc_text[b:e] for b, e in tokens[first:last]]
        return _argmax_candidate(score_candidates(mention_words, context, pool, embeddings, params))[0]

    return _keep_greedily(enumerate_token_windows(tokens, max_span_tokens, text=doc_text, policy=policy), pick)


def constrained_beam_decode(score_next: ScoreNext, trie: EntityTrie, beam_width: int = 5) -> EntityId:
    """Beam-search an entity id, expanding only symbols the trie allows.

    ``score_next(prefix, symbol)`` scores appending one symbol; the symbol
    None closes the current prefix as a complete entity. Path scores are
    sums of step scores. The best-scoring completed entity wins, ties going
    to the lexicographically smallest id. With beam_width 1 this reduces to
    greedy decoding.
    """
    if len(trie) == 0:
        raise EmptyTrie("cannot decode against an empty trie")
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    active: list[tuple[str, float]] = [("", 0.0)]
    finished: list[tuple[str, float]] = []
    while active:
        # closing a prefix competes against continuing it; only the step's
        # top beam_width hypotheses survive, finished or not
        expansions: list[tuple[str, float, bool]] = []
        for prefix, score in active:
            for symbol in trie.next_symbols(prefix):
                if symbol is None:
                    expansions.append((prefix, score + score_next(prefix, None), True))
                else:
                    expansions.append((prefix + symbol, score + score_next(prefix, symbol), False))
        expansions.sort(key=lambda e: (-e[1], e[0]))
        kept = expansions[:beam_width]
        active = [(prefix, score) for prefix, score, done in kept if not done]
        finished.extend((prefix, score) for prefix, score, done in kept if done)
    best_id, _ = min(finished, key=lambda p: (-p[1], p[0]))
    entity = trie.entity_at(best_id)
    assert entity is not None
    return entity


def _top_hypothesis(candidates: Iterable[Candidate]) -> EntityId | None:
    """The strongest of a token's hypotheses, None meaning no link.

    The hypotheses are the token's non-None candidates scored by prior plus
    a no-link entry carrying the leftover prior mass; on a tie the
    candidate, listed first, wins.
    """
    entries = [(e, p) for e, p in candidates if not e.is_none]
    leftover = max(0.0, 1.0 - sum(p for _, p in entries))
    return entries[0][0] if entries and entries[0][1] >= leftover else None


def link_token_merge(
    doc_text: str,
    policy: CandidatePolicy,
    *,
    tokenizer: Tokenizer = tokenize,
    tokens: Offsets | None = None,
) -> list[Annotation]:
    """Per-token linking driven by candidate priors.

    Each token takes its strongest hypothesis (_top_hypothesis); every run
    of adjacent tokens that agree on an entity becomes one annotation.
    """
    tokens = _offsets(doc_text, tokens, tokenizer)
    # tokens share candidate tuples (a repeated surface, or the full policy's
    # one uniform tuple), so each distinct tuple is scored once; holding the
    # tuple keeps its id from being reused within the call
    by_tuple: dict[int, tuple[tuple[Candidate, ...], EntityId | None]] = {}
    choices: list[EntityId | None] = []
    for begin, end in tokens:
        candidates = candidates_for(doc_text[begin:end], policy).candidates
        hit = by_tuple.get(id(candidates))
        if hit is None:
            hit = by_tuple[id(candidates)] = (candidates, _top_hypothesis(candidates))
        choices.append(hit[1])
    annotations: list[Annotation] = []
    for entity, run in groupby(zip(tokens, choices), key=lambda pair: pair[1]):
        if entity is not None:
            run_tokens = [token for token, _ in run]
            annotations.append(Annotation(Span(run_tokens[0][0], run_tokens[-1][1]), entity))
    return normalize_annotations(annotations)
