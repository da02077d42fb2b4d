from __future__ import annotations

import random

import pytest

from linkeval import (
    AliasDictionary,
    CandidateMode,
    CandidatePolicy,
    EntityId,
    build_trie,
    candidates_for,
    load_alias_dictionary,
    load_vocabulary,
)
from linkeval.errors import MalformedLine, PriorOutOfRange


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
    with pytest.raises(PriorOutOfRange):
        AliasDictionary.from_pairs([("m", EntityId("A"), 1.2)])
