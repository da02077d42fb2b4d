from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import oracle_alias_dictionary_from_pairs, oracle_load_alias_dictionary
from linkeval import (
    NONE_ENTITY,
    AliasDictionary,
    CandidateMode,
    CandidatePolicy,
    EntityId,
    build_trie,
    candidates_for,
    load_alias_dictionary,
    load_vocabulary,
)
from linkeval.errors import LinkEvalError, MalformedLine, PriorOutOfRange


def test_load_orders_by_descending_prior() -> None:
    d = load_alias_dictionary("japan\tJAPAN_COUNTRY\t0.4\njapan\tJAPAN_NT\t0.6\n")
    assert d.lookup("japan") == ((EntityId("JAPAN_NT"), 0.6), (EntityId("JAPAN_COUNTRY"), 0.4))


def test_load_breaks_prior_ties_lexicographically() -> None:
    d = load_alias_dictionary("m\tB\t0.3\nm\tA\t0.3\nm\tC\t0.3\n")
    assert [e.id for e, _ in d.lookup("m")] == ["A", "B", "C"]


def test_load_duplicate_pair_keeps_max_prior() -> None:
    d = load_alias_dictionary("m\tA\t0.2\nm\tA\t0.5\nm\tA\t0.1\n")
    assert d.lookup("m") == ((EntityId("A"), 0.5),)


def test_load_skips_comments_and_blanks() -> None:
    d = load_alias_dictionary("# header\n\nm\tA\t0.5\n")
    assert len(d.entries) == 1


def test_load_malformed_lines() -> None:
    with pytest.raises(MalformedLine):
        load_alias_dictionary("m\tA\n")
    with pytest.raises(MalformedLine):
        load_alias_dictionary("m\tA\tnot_a_number\n")
    with pytest.raises(MalformedLine):
        load_alias_dictionary("\tA\t0.5\n")


def test_load_prior_out_of_range() -> None:
    with pytest.raises(PriorOutOfRange):
        load_alias_dictionary("m\tA\t1.5\n")
    with pytest.raises(PriorOutOfRange):
        load_alias_dictionary("m\tA\t-0.1\n")
    # per-mention mass above 1 (plus tolerance) is rejected too
    with pytest.raises(PriorOutOfRange):
        load_alias_dictionary("m\tA\t0.7\nm\tB\t0.7\n")


def test_load_allows_sum_below_one_without_renormalizing() -> None:
    d = load_alias_dictionary("m\tA\t0.5\nm\tB\t0.2\n")
    assert [p for _, p in d.lookup("m")] == [0.5, 0.2]


def test_dictionary_is_permutation_invariant() -> None:
    lines = ["a\tX\t0.5", "a\tY\t0.3", "b\tZ\t0.9", "c\tX\t0.1"]
    rng = random.Random(3)
    reference = load_alias_dictionary("\n".join(lines))
    for _ in range(10):
        rng.shuffle(lines)
        assert load_alias_dictionary("\n".join(lines)) == reference


def test_lookup_exact_then_lowercase_fallback() -> None:
    d = load_alias_dictionary("japan\tJAPAN_LOWER\t0.5\nJapan\tJAPAN_NT\t0.9\n")
    # exact surface hits shadow the case-insensitive index
    assert d.lookup("japan") == ((EntityId("JAPAN_LOWER"), 0.5),)
    assert d.lookup("Japan") == ((EntityId("JAPAN_NT"), 0.9),)
    # unseen casings fall back to the merged lowercase index
    assert d.lookup("JAPAN") == ((EntityId("JAPAN_NT"), 0.9), (EntityId("JAPAN_LOWER"), 0.5))
    assert d.lookup("unknown") == ()


def test_loader_interns_each_entity_once() -> None:
    d = load_alias_dictionary("a\tE1\t0.5\nb\tE1\t0.4\nc\t--NME--\t0.2\nd\t E1 \t0.3\nd\tE1\t0.6\n")
    entity = d.entries["a"][0][0]
    assert d.entries["b"][0][0] is entity
    assert d.entries["c"][0][0] is NONE_ENTITY
    # a padded id and a bare one share one bucket at the maximum prior
    assert d.entries["d"] == ((EntityId("E1"), 0.6),) and d.entries["d"][0][0] is entity
    # a lowercase key that only one mention folds to shares its ranked tuple
    assert d.lowercase_index["a"] is d.entries["a"]


def test_constructor_keeps_a_repeated_entity_at_its_highest_prior() -> None:
    a = EntityId("A")
    d = AliasDictionary(entries={"m": ((a, 0.3), (a, 0.5))})
    assert d.entries["m"] == ((a, 0.5),)
    assert d.lowercase_index["m"] is d.entries["m"]
    assert d.lookup("m") == d.lookup("M")
    # the sum counts each entity once
    assert AliasDictionary(entries={"m": ((a, 0.6), (a, 0.6))}).entries["m"] == ((a, 0.6),)


def test_vocabulary_collects_all_entities() -> None:
    d = load_alias_dictionary("a\tX\t0.5\nb\tY\t0.4\n")
    assert d.vocabulary == frozenset({EntityId("X"), EntityId("Y")})


def test_dictionary_policy_candidates() -> None:
    d = load_alias_dictionary("Japan\tJAPAN_NT\t0.6\nJapan\tJAPAN\t0.4\n")
    policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=d)
    cs = candidates_for("Japan", policy)
    assert [e.id for e, _ in cs] == ["JAPAN_NT", "JAPAN"]
    assert candidates_for("nope", policy).candidates == ()


def test_full_vocabulary_policy_is_uniform_and_mention_independent() -> None:
    vocab = load_vocabulary("B_ENT\nA_ENT\n--NME--\nC_ENT\n")
    policy = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=vocab)
    a = candidates_for("anything", policy)
    b = candidates_for("something else", policy)
    assert a.candidates == b.candidates
    assert [e.id for e, _ in a] == ["A_ENT", "B_ENT", "C_ENT"]
    assert all(p == 1.0 / 3 for _, p in a)
    assert not any(e.is_none for e, _ in a)


def test_empty_policy_never_returns_candidates() -> None:
    policy = CandidatePolicy(CandidateMode.EMPTY)
    assert candidates_for("Japan", policy).candidates == ()


def test_policy_validation() -> None:
    with pytest.raises(ValueError):
        CandidatePolicy(CandidateMode.DICTIONARY)
    with pytest.raises(ValueError):
        CandidatePolicy(CandidateMode.FULL_VOCABULARY)
    with pytest.raises(ValueError):
        CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=(EntityId("--NME--", is_none=True),))


def test_full_policy_tells_an_empty_vocabulary_from_an_absent_one() -> None:
    with pytest.raises(ValueError, match="^full-vocabulary mode requires a vocabulary$"):
        CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=None)
    with pytest.raises(ValueError, match="^vocabulary contains no linkable entities$"):
        CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=())


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (AliasDictionary, {"entries": {}, "lowercase_index": {}}),
        (CandidatePolicy, {"mode": CandidateMode.EMPTY, "_uniform": ()}),
        (CandidatePolicy, {"mode": CandidateMode.EMPTY, "_prefix_keys": ()}),
    ],
    ids=["lowercase_index", "_uniform", "_prefix_keys"],
)
def test_derived_fields_are_not_constructor_parameters(cls, kwargs: dict) -> None:
    with pytest.raises(TypeError):
        cls(**kwargs)


def test_load_vocabulary_dedupes_and_adds_none_marker() -> None:
    vocab = load_vocabulary("A\nB\nA\n")
    assert [e.id for e in vocab] == ["A", "B", "--NME--"]
    assert sum(1 for e in vocab if e.is_none) == 1
    listed = load_vocabulary("A\n--NME--\nB\n--NME--\n")
    assert sum(1 for e in listed if e.is_none) == 1


def test_trie_next_symbols_example() -> None:
    trie = build_trie(["Japan", "Japan_NFT"])
    assert trie.next_symbols("Japan") == frozenset({None, "_"})
    assert trie.next_symbols("Japan_NFT") == frozenset({None})
    assert trie.next_symbols("Jax") == frozenset()
    assert "Japan" in trie
    assert "Jap" not in trie


def test_trie_entity_at_returns_inserted_entity() -> None:
    entity = EntityId("ABC")
    trie = build_trie([entity])
    assert trie.entity_at("ABC") == entity
    assert trie.entity_at("AB") is None


def test_trie_matches_set_oracle_on_random_strings() -> None:
    rng = random.Random(11)
    alphabet = "ab_c"
    for _ in range(200):
        inserted = {
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 10))
        }
        trie = build_trie(sorted(inserted))
        assert len(trie) == len(inserted)
        for s in inserted:
            assert s in trie
        for _ in range(50):
            probe = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            assert (probe in trie) == (probe in inserted)


def test_empty_trie_has_no_members() -> None:
    trie = build_trie([])
    assert len(trie) == 0
    assert "x" not in trie
    assert trie.next_symbols("") == frozenset()


def test_alias_dictionary_from_pairs_validates() -> None:
    # a bad prior after a good one for the same entity loses the max, yet still raises
    for prior in (1.2, float("nan"), -2.0, float("-inf")):
        with pytest.raises(PriorOutOfRange, match=rf"^'m' -> A: prior {prior} outside \[0, 1\]$"):
            AliasDictionary.from_pairs([("m", EntityId("A"), 0.5), ("m", EntityId("A"), prior)])


MENTIONS = ("Paris", "PARIS", "paris", "ΟΔΟΣ", "οδος", "Οδός", "ΑΣ", "m", " m", "New York")
ENTITY_IDS = ("E1", "E1", "E2", "E3", "e1", " E1 ", "--NME--", " --NME--", "", " ")
# 0.5000000005 twice sums to 1 + 1e-9, the edge of the sum tolerance; the next three pair with it around that edge
PRIORS = ("0.1", "0.2", "0.25", "0.3", "0", "-0.0", "1", "1e-9", " 0.5 ", "0.5000000005", "0.4999999995",
          "0.500000001", "0.499999999")
BAD_PRIORS = ("nan", "1.5", "-0.1", "inf", "abc", "")


@st.composite
def alias_line(draw, bad: bool) -> str:
    kind = draw(st.sampled_from(("row",) * 8 + ("blank", "comment", "fields") if bad else ("row",)))
    if kind == "blank":
        return draw(st.sampled_from(("", "  ", "\t")))
    if kind == "comment":
        return "# mention\tentity\tprior"
    fields = [draw(st.sampled_from(MENTIONS)), draw(st.sampled_from(ENTITY_IDS if bad else ENTITY_IDS[:8])),
              draw(st.sampled_from(PRIORS + BAD_PRIORS if bad else PRIORS))]
    if kind == "fields":
        fields = fields[: draw(st.integers(1, 2))] if draw(st.booleans()) else fields + ["x"]
    return "\t".join(fields)


@st.composite
def alias_tsv(draw) -> str:
    lines = draw(st.lists(alias_line(draw(st.booleans())), max_size=12))
    if lines:  # repeat some rows so (mention, entity) duplicates are common
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return "\n".join(lines)


def _outcome(build, *args):
    try:
        return build(*args)
    except LinkEvalError as exc:
        return exc


def _assert_same_dictionary(got: AliasDictionary | Exception, expected) -> None:
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        entries, lowercase_index = expected
        assert not isinstance(got, Exception), got
        assert list(got.entries.items()) == list(entries.items())
        assert list(got.lowercase_index.items()) == list(lowercase_index.items())


@given(alias_tsv())
@example("Paris\tE1\t0.5\nPARIS\tE2\t0.4\nparis\tE1\t0.7\nParis\t E2 \t0.2")
@example("ΟΔΟΣ\tE1\t0.3\nοδος\tE2\t0.6\nΟδός\tE1\t0.1\nοδος\tE1\t0.4")
@example("m\tE1\t0.5000000005\nm\tE2\t0.5000000005\nΑΣ\tE1\t0.6\nΑΣ\tE2\t0.6")
@example("m\tE1\t0.7\nm\tE2\t0.7\nm\tE3\tnan")
@settings(max_examples=600, deadline=None)
def test_load_alias_dictionary_matches_oracle(text: str) -> None:
    _assert_same_dictionary(_outcome(load_alias_dictionary, text), _outcome(oracle_load_alias_dictionary, text))


ENTITIES = (EntityId("A"), EntityId("B"), EntityId("a"), NONE_ENTITY, EntityId("--NME--"))
PAIR_PRIORS = (0.0, -0.0, 0.1, 0.25, 0.5, 0.5000000005, 1.0, 1.5, -0.5, -2.0, float("nan"), float("inf"))


@given(st.lists(st.tuples(st.sampled_from(MENTIONS), st.sampled_from(ENTITIES), st.sampled_from(PAIR_PRIORS)),
                max_size=10))
@example([("m", EntityId("A"), 1.2)])
@example([("Paris", EntityId("A"), 0.4), ("PARIS", EntityId("A"), 0.6), ("paris", NONE_ENTITY, 0.1)])
@settings(max_examples=400, deadline=None)
def test_from_pairs_matches_oracle(pairs: list[tuple[str, EntityId, float]]) -> None:
    _assert_same_dictionary(
        _outcome(AliasDictionary.from_pairs, pairs), _outcome(oracle_alias_dictionary_from_pairs, pairs)
    )


@given(st.lists(st.tuples(st.sampled_from(MENTIONS), st.sampled_from(ENTITIES),
                          st.sampled_from([p for p in PAIR_PRIORS if 0.0 <= p <= 1.0])), max_size=10))
@example([("m", EntityId("A"), 0.45), ("m", EntityId("A"), 0.1)])
@settings(max_examples=400, deadline=None)
def test_constructor_matches_the_from_pairs_oracle(pairs: list[tuple[str, EntityId, float]]) -> None:
    grouped: dict[str, list[tuple[EntityId, float]]] = {}
    for mention, entity, prior in pairs:
        grouped.setdefault(mention, []).append((entity, prior))
    _assert_same_dictionary(
        _outcome(AliasDictionary, grouped), _outcome(oracle_alias_dictionary_from_pairs, pairs)
    )
