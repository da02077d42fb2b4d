from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ann, offsets
from oracles import (
    TokenPrediction,
    greedy_decode,
    hash_scorer,
    hypotheses_then_merge,
    merge_token_predictions,
    oracle_annotate,
    oracle_annotate_on_document_tokens,
    oracle_enumerate_token_windows,
    oracle_link_eagerly,
    oracle_link_prior_argmax,
    oracle_resolve_overlaps,
    oracle_tokenize,
)
from linkeval import (
    NONE_ENTITY,
    AliasDictionary,
    AnnotationPipeline,
    CandidateMode,
    CandidatePolicy,
    CoherenceParams,
    EmbeddingTable,
    EntityId,
    Span,
    build_trie,
    candidates_for,
    coherence_score,
    constrained_beam_decode,
    enumerate_token_windows,
    link_coherence_rerank,
    link_prior_argmax,
    link_token_merge,
    load_alias_dictionary,
    load_embeddings,
    load_vocabulary,
    score_candidates,
    split_document,
    tokenize,
)
from linkeval import linkers
from linkeval.errors import DimensionMismatch, EmptyTrie, LengthMismatch, MalformedLine
from linkeval.linkers import _argmax_candidate, _keep_greedily


def dict_policy(tsv: str) -> CandidatePolicy:
    return CandidatePolicy(CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(tsv))


def test_load_embeddings_basic() -> None:
    table = load_embeddings("word\t1.0 0.0\nENT_A\t0.5 0.5\n")
    assert table.dimension == 2
    assert np.allclose(table.vector("word"), [1.0, 0.0])
    assert table.vector("missing") is None
    with pytest.raises(ValueError):
        table.vector("word")[0] = 9.0  # vectors are read-only


def test_load_embeddings_errors() -> None:
    with pytest.raises(DimensionMismatch):
        load_embeddings("a\t1 2\nb\t1 2 3\n")
    with pytest.raises(MalformedLine):
        load_embeddings("a 1 2\n")
    with pytest.raises(MalformedLine):
        load_embeddings("a\tx y\n")
    with pytest.raises(MalformedLine):
        load_embeddings("")
    with pytest.raises(MalformedLine, match="^line 1: empty vector$"):
        load_embeddings("k\t\n")


def test_load_embeddings_skips_blank_lines() -> None:
    assert list(load_embeddings("\na\t1 2\n \t \n").vectors) == ["a"]


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite_components(component: str) -> None:
    with pytest.raises(MalformedLine, match="^line 2: non-finite vector component for 'E2'$"):
        load_embeddings(f"E1\t1 0\nE2\t{component} 1\n")


def test_coherence_single_word_identity_matrix() -> None:
    table = EmbeddingTable(dimension=2, vectors={"w": np.array([1.0, 0.0])})
    params = CoherenceParams(bilinear=np.eye(2), word_weights={"w": 1.0})
    assert coherence_score(["w"], table, params) == pytest.approx(1.0)


def test_coherence_zero_weights_and_empty_context() -> None:
    table = EmbeddingTable(dimension=2, vectors={"w": np.array([1.0, 2.0])})
    params = CoherenceParams(bilinear=np.eye(2), word_weights={})
    assert coherence_score(["w"], table, params) == 0.0
    assert coherence_score([], table, params) == 0.0


def test_coherence_is_entity_independent() -> None:
    table = EmbeddingTable(dimension=2, vectors={"w": np.array([0.5, 0.5])})
    params = CoherenceParams(bilinear=np.array([[1.0, 2.0], [0.0, 1.0]]), word_weights={"w": 2.0})
    term = coherence_score(["w", "nope"], table, params)
    scored = score_candidates([], ["w", "nope"], [(EntityId("A"), 0.25), (EntityId("B"), 0.25)], table, params)
    assert [s for _, s in scored] == [0.25 + term, 0.25 + term]
    assert term != 0.0


def test_coherence_dimension_mismatch() -> None:
    table = EmbeddingTable(dimension=3, vectors={})
    params = CoherenceParams(bilinear=np.eye(2))
    with pytest.raises(DimensionMismatch):
        coherence_score(["w"], table, params)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: EmbeddingTable(dimension=0, vectors={}), DimensionMismatch),
        (lambda: EmbeddingTable(dimension=2, vectors={"w": np.zeros(3)}), DimensionMismatch),
        (lambda: CoherenceParams(bilinear=np.zeros((2, 3))), DimensionMismatch),
        (lambda: CoherenceParams(bilinear=np.eye(2), context_window=-1), ValueError),
        (lambda: enumerate_token_windows([(0, 1)], 0, text="a", policy=FULL_POLICY), ValueError),
        (lambda: link_coherence_rerank("a", FULL_POLICY, EmbeddingTable.empty(), CoherenceParams.zeros(1), top_p=0),
         ValueError),
    ],
    ids=["zero-dimension", "wrong-shape-vector", "non-square-matrix", "negative-context-window",
         "zero-max-length", "zero-top-p"],
)
def test_invalid_linker_arguments_raise(build, error) -> None:
    with pytest.raises(error):
        build()


def test_enumerate_token_windows_count_and_order() -> None:
    text = "a b c"
    spans = [(begin, end) for begin, end, _, _ in enumerate_token_windows(offsets(text), 5, text=text, policy=FULL_POLICY)]
    assert len(spans) == 6
    assert spans == [(0, 1), (0, 3), (0, 5), (2, 3), (2, 5), (4, 5)]


@pytest.mark.parametrize("total,n", [(1, 1), (4, 2), (10, 5), (3, 9)])
def test_enumerate_token_windows_count_formula(total: int, n: int) -> None:
    text = " ".join("x" * 3 for _ in range(total))
    expected = sum(total - length + 1 for length in range(1, min(n, total) + 1))
    assert len(enumerate_token_windows(offsets(text), n, text=text, policy=FULL_POLICY)) == expected


def test_prior_argmax_example() -> None:
    policy = dict_policy("Japan\tJAPAN_NT\t0.6\nJapan\tJAPAN\t0.4\n")
    assert link_prior_argmax("Japan won", policy) == [ann(0, 5, "JAPAN_NT")]


def test_prior_argmax_tie_breaks_to_smaller_id() -> None:
    policy = dict_policy("m\tB_ENT\t0.5\nm\tA_ENT\t0.5\n")
    assert link_prior_argmax("m", policy) == [ann(0, 1, "A_ENT")]


def test_prior_argmax_ignores_none_winner() -> None:
    policy = dict_policy("ghost\t--NME--\t0.9\nghost\tGHOST\t0.1\n")
    assert link_prior_argmax("ghost", policy) == []


def test_prior_argmax_longer_span_wins_overlap() -> None:
    policy = dict_policy("New York\tNY_CITY\t0.8\nYork\tYORK_UK\t0.9\n")
    assert link_prior_argmax("New York", policy) == [ann(0, 8, "NY_CITY")]


def test_prior_argmax_empty_policy_returns_nothing() -> None:
    policy = CandidatePolicy(CandidateMode.EMPTY)
    assert link_prior_argmax("Japan won the cup", policy) == []


def test_prior_argmax_full_vocabulary_links_everything_to_smallest_id() -> None:
    vocab = load_vocabulary("JAPAN_NT\nAAA_FIRST\nZZZ_LAST\n")
    policy = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=vocab)
    out = link_prior_argmax("Japan won", policy)
    assert out == [ann(0, 9, "AAA_FIRST")]


def test_prior_argmax_accepts_custom_tokenizer() -> None:
    policy = dict_policy("Japan\tJAPAN_NT\t0.9\n")
    naive = lambda text: [t for t in tokenize(text) if t.surface != "."]
    assert link_prior_argmax("Japan .", policy, tokenizer=tokenize) == [ann(0, 5, "JAPAN_NT")]
    assert link_prior_argmax("Japan .", policy, tokenizer=naive) == [ann(0, 5, "JAPAN_NT")]


ENTITIES = (EntityId("E1"), EntityId("E2"), EntityId("E3"), NONE_ENTITY)
FULL_POLICY = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=ENTITIES)
MENTIONS = ("Paris", "paris", "PARIS", "Texas", "New York", "new york", "York")
# at most four entities per mention, so no mention's priors sum above 1
alias_rows = st.lists(
    st.tuples(st.sampled_from(MENTIONS), st.sampled_from(ENTITIES), st.sampled_from((0.05, 0.1, 0.25))),
    max_size=24,
)
# a window's pick may be None, as when it has no candidates
picked_spans = st.lists(
    st.tuples(
        st.builds(lambda begin, length: Span(begin, begin + length), st.integers(0, 12), st.integers(1, 5)),
        st.sampled_from((*ENTITIES[:3], None)),
    ),
    max_size=20,
)


@given(picked_spans)
@example([(Span(0, 3), EntityId("E2")), (Span(0, 3), EntityId("E1")), (Span(0, 2), EntityId("E1")),
          (Span(2, 5), EntityId("E3")), (Span(4, 7), EntityId("E1")), (Span(9, 10), EntityId("E2"))])
@example([(Span(0, 5), None), (Span(0, 3), EntityId("E2")), (Span(3, 5), EntityId("E1"))])
@settings(max_examples=300, deadline=None)
def test_resolve_overlaps_matches_oracle(picked) -> None:
    # one window per distinct span, picking the smallest drawn id as the oracle's order does
    linked = [(span, entity) for span, entity in picked if entity is not None]
    choice = {span: min((e for s, e in linked if s == span), key=lambda e: e.id, default=None) for span, _ in picked}
    kept: list[Span] = []

    def pick(begin: int, end: int, first: int, last: int) -> EntityId | None:
        span = Span(begin, end)
        assert (first, last) == (begin, end)
        assert not any(span.begin < other.end and other.begin < span.end for other in kept)
        if choice[span] is not None:
            kept.append(span)
        return choice[span]

    windows = [(span.begin, span.end, span.begin, span.end) for span in choice]
    assert _keep_greedily(windows, pick) == oracle_resolve_overlaps(linked)


@given(alias_rows, st.permutations(ENTITIES))
@settings(max_examples=200, deadline=None)
def test_first_ranked_candidate_is_the_argmax(rows, vocabulary) -> None:
    policies = [
        CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows)),
        CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=tuple(vocabulary)),
        CandidatePolicy(CandidateMode.EMPTY),
    ]
    for policy in policies:
        for mention in (*MENTIONS, "pArIs", "NEW YORK", "Lyon"):
            candidates = candidates_for(mention, policy).candidates
            assert (candidates[0] if candidates else None) == _argmax_candidate(candidates)


@given(
    alias_rows,
    st.lists(st.sampled_from(("Paris", "paris", "Texas", "New", "York", "new", "york", "the", ".")), max_size=14),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_prior_argmax_matches_oracle_linker(rows, words, max_span_tokens) -> None:
    text = " ".join(words)
    policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows))
    expected = oracle_link_prior_argmax(text, [t.span for t in tokenize(text)], rows, max_span_tokens)
    assert link_prior_argmax(text, policy, max_span_tokens) == expected


EAGER_WORDS = ("Paris", "paris", "Texas", "New", "York", "new", "york", "the", ".")


@given(
    alias_rows,
    st.lists(st.sampled_from(EAGER_WORDS), max_size=12),
    # vectors for some words and entities only; quarter steps force score ties
    st.dictionaries(st.sampled_from((*EAGER_WORDS, "E1", "E2", "E3")),
                    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=8),
    st.dictionaries(st.sampled_from(EAGER_WORDS), st.sampled_from((-0.5, 0.25, 1.0)), max_size=3),
    st.integers(1, 5),
    st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_span_linkers_match_the_eager_oracle(rows, words, vectors, weights, top_p, max_span_tokens) -> None:
    text = " ".join(words)
    table = EmbeddingTable(dimension=2, vectors={key: np.array(vec, dtype=np.float64) / 4 for key, vec in vectors.items()})
    params = CoherenceParams(bilinear=np.array([[1.0, 0.5], [0.0, -1.0]]), word_weights=weights, context_window=2)
    # FULL_POLICY pools three linkable entities, so top_p runs below and above the pool size
    for policy in (
        CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows)),
        FULL_POLICY,
        CandidatePolicy(CandidateMode.EMPTY),
    ):
        assert link_prior_argmax(text, policy, max_span_tokens) == oracle_link_eagerly(text, policy, max_span_tokens)
        assert link_coherence_rerank(text, policy, table, params, top_p, max_span_tokens) == oracle_link_eagerly(
            text, policy, max_span_tokens, rerank=(table, params, top_p)
        )


def test_span_linkers_look_up_only_windows_they_could_keep(monkeypatch) -> None:
    looked_up: list[str] = []
    real = linkers.candidates_for
    monkeypatch.setattr(linkers, "candidates_for", lambda mention, policy: looked_up.append(mention) or real(mention, policy))
    # 25 windows; "a b c d e" is kept first, and then only "f g" overlaps nothing kept
    text = "a b c d e f g"
    full = link_prior_argmax(text, FULL_POLICY)
    assert full == [ann(0, 9, "E1"), ann(10, 13, "E1")]
    assert looked_up == ["a b c d e", "f g"]
    looked_up.clear()
    assert link_coherence_rerank(text, FULL_POLICY, EmbeddingTable.empty(), CoherenceParams.zeros(1)) == full
    assert looked_up == ["a b c d e", "f g"]

    policy = dict_policy("New York City\tNYC\t0.9\nNew York\tNY\t0.8\nYork\tYORK\t0.7\nCity\tCITY\t0.6\nNew\tNEW\t0.5\n")
    text = "New York City and New York"
    looked_up.clear()
    nested = link_prior_argmax(text, policy)
    assert nested == [ann(0, 13, "NYC"), ann(18, 26, "NY")] == oracle_link_eagerly(text, policy, 5)
    # 8 windows pass the prefix test; the six nested in a kept span are never looked up
    assert len(enumerate_token_windows(offsets(text), 5, text=text, policy=policy)) == 8
    assert looked_up == ["New York City", "New York"]


# str.lower maps a capital sigma by what follows it, so these words probe
# that window pruning stays sound when a longer window lowercases
# differently from its prefix ("ΑΣ" -> "ας", "ΑΣ'Α" -> "ασ'α")
SIGMA_WORDS = ("Σ", "ς", "σ", "ΑΣ", "'Α", "α", "don't", "DON'T", "do", "Paris", "york", ".")
SIGMA_MENTIONS = ("Σ", "σ", "ς", "ΑΣ", "ας", "ασ", "ασ'α", "ΑΣ'Α", "σς", "ΣΣ", "Σα", "do", "don't", "n't",
                  "do n't", "paris", "Paris york", "ασ σ")
sigma_rows = st.lists(
    st.tuples(st.sampled_from(SIGMA_MENTIONS), st.sampled_from(ENTITIES), st.sampled_from((0.05, 0.1, 0.25))),
    max_size=24,
)


@given(sigma_rows, st.lists(st.sampled_from(SIGMA_WORDS), max_size=12), st.sampled_from(("", " ")), st.integers(1, 5))
@example([("ασ'α", EntityId("E1"), 0.25)], ["ΑΣ", "'Α"], "", 2)
@settings(max_examples=300, deadline=None)
def test_pruned_windows_match_oracle_linker(rows, words, separator, max_span_tokens) -> None:
    text = separator.join(words)
    policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows))
    expected = oracle_link_prior_argmax(text, [t.span for t in oracle_tokenize(text)], rows, max_span_tokens)
    assert link_prior_argmax(text, policy, max_span_tokens) == expected


def test_pruning_keeps_a_final_sigma_prefix() -> None:
    policy = dict_policy("ασ'α\tE1\t0.5\n")
    assert [t.surface for t in tokenize("ΑΣ'Α")] == ["ΑΣ", "'Α"]
    assert policy.prefix_windows("ΑΣ", [(0, 2)], 1) == [1]
    assert policy.prefix_windows("ΑΑ", [(0, 2)], 1) == [0]
    assert link_prior_argmax("ΑΣ'Α", policy) == [ann(0, 4, "E1")]


# keys that share prefixes, a capital sigma whose lowercase depends on what
# follows it, and "İ", whose lowercase form is two characters long
PREFIX_MENTIONS = ("New", "New York", "New York City", "Newark", "york city", "ΑΣ", "ΑΣ'Α", "ασ σ", "İ",
                   "İstanbul", "i̇stanbul", "İZMİR", "istanbul new")
PREFIX_WORDS = ("New", "new", "NEW", "York", "City", "Newark", "ΑΣ", "'Α", "Σ", "İ", "İstanbul", "ISTANBUL",
                "İZMİR", "i", ".")
prefix_rows = st.lists(
    st.tuples(st.sampled_from(PREFIX_MENTIONS), st.sampled_from(ENTITIES), st.sampled_from((0.05, 0.1))),
    min_size=1,
    max_size=20,
)


@given(prefix_rows, st.lists(st.sampled_from(PREFIX_WORDS), max_size=14), st.sampled_from(("", " ")), st.integers(1, 6))
@example([("ΑΣ'Α", EntityId("E1"), 0.1)], ["ΑΣ", "'Α"], "", 2)
@example([("İstanbul", EntityId("E1"), 0.1)], ["İstanbul", "i"], " ", 2)
@settings(max_examples=200, deadline=None)
def test_dictionary_windows_match_the_per_window_walk(rows, words, separator, max_length) -> None:
    text = separator.join(words)
    tokens = offsets(text)
    policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows))
    expected = oracle_enumerate_token_windows(tokens, max_length, text=text, policy=policy)
    assert enumerate_token_windows(tokens, max_length, text=text, policy=policy) == expected


@given(st.lists(st.sampled_from(SIGMA_WORDS), max_size=12), st.sampled_from(("", " ")), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_full_policy_prunes_no_window(words, separator, max_length) -> None:
    text = separator.join(words)
    tokens = offsets(text)
    every_window = [
        (tokens[start][0], tokens[stop - 1][1], start, stop)
        for start in range(len(tokens))
        for stop in range(start + 1, min(start + max_length, len(tokens)) + 1)
    ]
    assert enumerate_token_windows(tokens, max_length, text=text, policy=FULL_POLICY) == every_window


# chunks that a cut can split ("Japan's", "team.", "(do", "n't!") and the
# surfaces of those pieces alone ("'", "s", "’") are all alias keys
PIECE_MENTIONS = ("Japan", "Japan's", "'s", "'", "s", "’", "team", "do", "n't", "do n't", "won", "Japan 's team", ".")
PIECES = (*PIECE_MENTIONS, "’s", "N'T", "!", "?", "(", ")", "...", ",", " ", "  ", "\n")
piece_rows = st.lists(
    st.tuples(st.sampled_from(PIECE_MENTIONS), st.sampled_from(ENTITIES), st.sampled_from((0.05, 0.1, 0.25))),
    max_size=24,
)
PIECE_EMBEDDINGS = EmbeddingTable(
    dimension=2,
    vectors={"Japan": np.array([1.0, 0.0]), "team": np.array([0.0, 1.0]), "'s": np.array([0.5, -0.5]),
             "E1": np.array([0.2, 0.3]), "E2": np.array([-0.4, 0.9])},
)
PIECE_PARAMS = CoherenceParams(bilinear=np.array([[1.0, 0.5], [0.0, 2.0]]),
                               word_weights={"team": 0.3, "'s": -0.2, "Japan": 0.1}, context_window=2)


@given(piece_rows, st.lists(st.sampled_from(PIECES), max_size=30), st.integers(1, 6), st.integers(1, 3))
@example([("'s", EntityId("E1"), 0.25), ("'", EntityId("E2"), 0.25)], ["won", " ", "Japan", "'s", " ", "team"], 3, 2)
@example([("'s", EntityId("E1"), 0.25), ("'", EntityId("E2"), 0.25)], ["won", " ", "by", " ", "Japan", "'s", " ", "team"], 3, 2)
@settings(max_examples=150, deadline=None)
def test_pipelines_match_the_annotate_oracles(rows, pieces, max_tokens, max_span_tokens) -> None:
    text = "".join(pieces)
    cuts_meet_whitespace = all(
        (s.char_offset == 0 or text[s.char_offset - 1].isspace())
        and (s.char_offset + len(s.text) == len(text) or text[s.char_offset + len(s.text)].isspace())
        for s in split_document(text, max_tokens)
    )
    policies = (
        CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows)),
        FULL_POLICY,
        CandidatePolicy(CandidateMode.EMPTY),
    )
    for policy in policies:
        linker_fns = (
            functools.partial(link_prior_argmax, policy=policy, max_span_tokens=max_span_tokens),
            functools.partial(link_coherence_rerank, policy=policy, embeddings=PIECE_EMBEDDINGS, params=PIECE_PARAMS,
                              top_p=2, max_span_tokens=max_span_tokens),
            functools.partial(link_token_merge, policy=policy),
        )
        for linker in linker_fns:
            on_tokens = AnnotationPipeline(linker, max_tokens=max_tokens, takes_tokens=True).annotate(text)
            on_text = AnnotationPipeline(linker, max_tokens=max_tokens).annotate(text)
            assert on_tokens == oracle_annotate_on_document_tokens(text, linker, max_tokens)
            assert on_text == oracle_annotate(text, linker, max_tokens)
            if cuts_meet_whitespace:
                assert on_tokens == on_text


def test_empty_policy_looks_nothing_up(monkeypatch) -> None:
    looked_up: list[str] = []
    real = linkers.candidates_for
    monkeypatch.setattr(linkers, "candidates_for", lambda mention, policy: looked_up.append(mention) or real(mention, policy))
    policy = CandidatePolicy(CandidateMode.EMPTY)
    text = "Japan beat Syria in the Asian Cup ."
    assert enumerate_token_windows(offsets(text), 5, text=text, policy=policy) == []
    assert link_prior_argmax(text, policy) == []
    assert link_coherence_rerank(text, policy, EmbeddingTable.empty(), CoherenceParams.zeros(1)) == []
    assert looked_up == []


@given(alias_rows, st.lists(st.sampled_from(("Paris", "paris", "Texas", "New", "York", "the", ".")), max_size=10))
# three priors of 0.25 leave 0.25 for no link: the tie goes to the candidate
@example([("Paris", entity, 0.25) for entity in ENTITIES[:3]], ["Paris", "the"])
@settings(max_examples=200, deadline=None)
def test_token_merge_equals_merging_full_hypotheses(rows, words) -> None:
    text = " ".join(words)
    for policy in (
        CandidatePolicy(CandidateMode.DICTIONARY, dictionary=AliasDictionary.from_pairs(rows)),
        FULL_POLICY,
        CandidatePolicy(CandidateMode.EMPTY),
    ):
        assert link_token_merge(text, policy) == hypotheses_then_merge(text, policy)


def test_rerank_degenerates_to_prior_argmax_without_signal() -> None:
    policy = dict_policy(
        "Japan\tJAPAN_NT\t0.6\nJapan\tJAPAN\t0.4\nSyria\tSYRIA_NT\t0.8\nAsian Cup\tASIAN_CUP\t0.7\n"
    )
    table = EmbeddingTable(dimension=2, vectors={})
    params = CoherenceParams.zeros(2)
    for text in ("Japan won", "Japan beat Syria in Asian Cup .", "nothing here"):
        assert link_coherence_rerank(text, policy, table, params) == link_prior_argmax(text, policy)


def test_rerank_similarity_overrides_prior() -> None:
    policy = dict_policy("m\tPRIOR_WIN\t0.6\nm\tVEC_WIN\t0.4\n")
    table = EmbeddingTable(
        dimension=2,
        vectors={"m": np.array([1.0, 0.0]), "VEC_WIN": np.array([1.0, 0.0]), "PRIOR_WIN": np.array([0.0, 0.0])},
    )
    params = CoherenceParams.zeros(2)
    assert link_coherence_rerank("m", policy, table, params) == [ann(0, 1, "VEC_WIN")]


def test_rerank_truncates_to_top_p() -> None:
    # the low-prior candidate has a huge vector but sits outside top_p=1
    policy = dict_policy("m\tSTRONG_VEC\t0.1\nm\tTOP_PRIOR\t0.9\n")
    table = EmbeddingTable(
        dimension=1, vectors={"m": np.array([1.0]), "STRONG_VEC": np.array([100.0])}
    )
    params = CoherenceParams.zeros(1)
    assert link_coherence_rerank("m", policy, table, params, top_p=1) == [ann(0, 1, "TOP_PRIOR")]
    assert link_coherence_rerank("m", policy, table, params, top_p=2) == [ann(0, 1, "STRONG_VEC")]


def test_score_candidates_scores_every_input_candidate() -> None:
    table = EmbeddingTable(dimension=1, vectors={})
    params = CoherenceParams.zeros(1)
    candidates = [(EntityId(f"E{i}"), 0.1) for i in range(7)]
    scored = score_candidates(["w"], [], candidates, table, params)
    assert [e for e, _ in scored] == [e for e, _ in candidates]
    assert all(s == pytest.approx(0.1) for _, s in scored)


def test_beam_decode_follows_scores() -> None:
    trie = build_trie(["AB", "AC"])
    scores = {("A", "C"): 5.0, ("A", "B"): 1.0}
    score_next = lambda prefix, symbol: scores.get((prefix, symbol), 0.0)
    assert constrained_beam_decode(score_next, trie, beam_width=2).id == "AC"


def test_beam_decode_output_is_always_in_trie() -> None:
    rng = random.Random(5)
    alphabet = "AB_"
    for seed in range(50):
        entries = sorted(
            {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(rng.randint(1, 8))}
        )
        trie = build_trie(entries)
        result = constrained_beam_decode(hash_scorer(seed), trie, beam_width=rng.randint(1, 4))
        assert result.id in entries


def test_beam_width_one_equals_greedy() -> None:
    rng = random.Random(9)
    alphabet = "ABC_"
    for seed in range(60):
        entries = sorted(
            {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(1, 9))}
        )
        trie = build_trie(entries)
        scorer = hash_scorer(seed + 1000)
        assert constrained_beam_decode(scorer, trie, beam_width=1).id == greedy_decode(scorer, trie)


def test_beam_decode_empty_trie() -> None:
    with pytest.raises(EmptyTrie):
        constrained_beam_decode(lambda p, s: 0.0, build_trie([]), beam_width=1)
    with pytest.raises(ValueError):
        constrained_beam_decode(lambda p, s: 0.0, build_trie(["A"]), beam_width=0)


def test_merge_token_predictions_joins_adjacent_same_entity() -> None:
    policy = dict_policy("New\tNY_CITY\t0.5\nYork\tNY_CITY\t0.5\n")
    tokens = tokenize("New York")
    ny = EntityId("NY_CITY")
    predictions = [
        TokenPrediction(0, ((ny, 0.9), (None, 0.1))),
        TokenPrediction(1, ((ny, 0.8), (None, 0.2))),
    ]
    assert merge_token_predictions(predictions, tokens, policy) == [ann(0, 8, "NY_CITY")]


def test_merge_token_predictions_breaks_runs_on_abstention() -> None:
    policy = dict_policy("a\tX\t0.5\nb\tX\t0.5\nc\tX\t0.5\n")
    tokens = tokenize("a b c")
    x = EntityId("X")
    predictions = [
        TokenPrediction(0, ((x, 0.9),)),
        TokenPrediction(1, ((None, 0.9), (x, 0.1))),
        TokenPrediction(2, ((x, 0.9),)),
    ]
    out = merge_token_predictions(predictions, tokens, policy)
    assert out == [ann(0, 1, "X"), ann(4, 5, "X")]


def test_merge_token_predictions_filters_by_candidates() -> None:
    policy = dict_policy("tok\tALLOWED\t0.5\n")
    tokens = tokenize("tok")
    predictions = [TokenPrediction(0, ((EntityId("FORBIDDEN"), 0.9), (EntityId("ALLOWED"), 0.5)))]
    assert merge_token_predictions(predictions, tokens, policy) == [ann(0, 3, "ALLOWED")]


def test_merge_token_predictions_empty_policy_never_links() -> None:
    policy = CandidatePolicy(CandidateMode.EMPTY)
    tokens = tokenize("a b")
    predictions = [
        TokenPrediction(0, ((EntityId("X"), 0.9),)),
        TokenPrediction(1, ((EntityId("X"), 0.9),)),
    ]
    assert merge_token_predictions(predictions, tokens, policy) == []


def test_merge_token_predictions_length_mismatch() -> None:
    policy = CandidatePolicy(CandidateMode.EMPTY)
    with pytest.raises(LengthMismatch):
        merge_token_predictions([], tokenize("a"), policy)


def test_token_prediction_validation() -> None:
    with pytest.raises(ValueError):
        TokenPrediction(0, ())
    with pytest.raises(ValueError):
        TokenPrediction(0, ((EntityId("A"), 0.1), (EntityId("B"), 0.9)))


def test_link_token_merge_uses_priors() -> None:
    policy = dict_policy("New\tNY_CITY\t0.9\nYork\tNY_CITY\t0.8\nwon\tWRONG\t0.2\n")
    out = link_token_merge("New York won", policy)
    # "won" abstains: leftover mass 0.8 beats the 0.2 candidate
    assert out == [ann(0, 8, "NY_CITY")]
