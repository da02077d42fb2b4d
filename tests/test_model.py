from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ann
from linkeval import (
    NONE_ENTITY,
    AnnotatedDocument,
    Annotation,
    EntityId,
    Span,
    TokenSpan,
    filter_inkb,
    make_entity,
    normalize_annotations,
)
from linkeval.errors import InvalidSpan
from oracles import oracle_normalize_annotations


def test_entity_id_rejects_empty_and_padded() -> None:
    with pytest.raises(ValueError):
        EntityId("")
    with pytest.raises(ValueError):
        EntityId(" padded ")


def test_make_entity_maps_reserved_marker() -> None:
    assert make_entity("--NME--") is NONE_ENTITY
    assert make_entity("--NME--").is_none
    assert not make_entity("JAPAN_NT").is_none
    assert str(EntityId("X")) == "X"


def test_span_rejects_bad_offsets() -> None:
    with pytest.raises(InvalidSpan):
        Span(-1, 3)
    with pytest.raises(InvalidSpan):
        Span(3, 3)
    with pytest.raises(InvalidSpan):
        Span(5, 2)
    with pytest.raises(InvalidSpan, match="must be integers"):
        Span("0", 1)


def test_span_overlap_is_strict_interval_intersection() -> None:
    assert Span(0, 5).overlaps(Span(4, 6))
    assert not Span(0, 5).overlaps(Span(5, 8))
    assert Span(2, 3).overlaps(Span(0, 9))


def test_normalize_sorts_and_dedupes() -> None:
    raw = [ann(5, 9, "B"), ann(0, 5, "A"), ann(0, 5, "A")]
    assert normalize_annotations(raw) == [ann(0, 5, "A"), ann(5, 9, "B")]


def test_normalize_keeps_same_span_different_entity() -> None:
    raw = [ann(0, 5, "B"), ann(0, 5, "A")]
    assert normalize_annotations(raw) == [ann(0, 5, "A"), ann(0, 5, "B")]


annotations_strategy = st.lists(
    st.builds(
        lambda b, l, e: Annotation(Span(b, b + l), EntityId(e)),
        st.integers(0, 50),
        st.integers(1, 10),
        st.sampled_from(["A", "B", "C"]),
    ),
    max_size=25,
)


@given(annotations_strategy)
def test_normalize_is_idempotent(raw: list[Annotation]) -> None:
    once = normalize_annotations(raw)
    assert normalize_annotations(once) == once
    keys = [(a.span.begin, a.span.end, a.entity.id) for a in once]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


# NONE_ENTITY and a plain EntityId("--NME--") share an id but are unequal:
# the one case where equal sort keys hide unequal annotations
X = Annotation(Span(0, 5), NONE_ENTITY)
Y = Annotation(Span(0, 5), EntityId("--NME--"))


@given(
    st.lists(
        st.builds(
            Annotation,
            st.builds(lambda b, l: Span(b, b + l), st.integers(0, 6), st.integers(1, 3)),
            st.sampled_from([EntityId("A"), EntityId("B"), NONE_ENTITY, EntityId("--NME--")]),
        ),
        max_size=20,
    ).flatmap(lambda anns: st.permutations(anns + anns[: len(anns) // 2]))
)
@example([X, Y, X])
def test_normalize_matches_oracle(raw: list[Annotation]) -> None:
    assert normalize_annotations(raw) == oracle_normalize_annotations(raw)
    if raw == [X, Y, X]:
        assert normalize_annotations(raw) == [X, Y, X]


@pytest.mark.parametrize(
    ("cls", "fields", "change", "text", "hashed"),
    [
        (EntityId, {"id": "Q1", "is_none": True}, {"id": "Q2"}, "EntityId(id='Q1', is_none=True)", hash("Q1")),
        (Span, {"begin": 2, "end": 5}, {"end": 9}, "Span(begin=2, end=5)", hash((2, 5))),
        (
            Annotation,
            {"span": Span(2, 5), "entity": EntityId("Q1")},
            {"span": Span(0, 1)},
            "Annotation(span=Span(begin=2, end=5), entity=EntityId(id='Q1', is_none=False))",
            hash((Span(2, 5), EntityId("Q1"))),
        ),
        (
            TokenSpan,
            {"token_index": 3, "span": Span(2, 5), "surface": "abc"},
            {"token_index": 4},
            "TokenSpan(token_index=3, span=Span(begin=2, end=5), surface='abc')",
            hash((3, Span(2, 5), "abc")),
        ),
    ],
)
def test_value_type_contract(cls, fields, change, text, hashed) -> None:
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, fields[name])
    replaced = dataclasses.replace(value, **change)
    assert replaced == cls(**{**fields, **change}) != value
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(value) == text
    assert hash(value) == hashed == hash(cls(**fields))


def test_filter_inkb_drops_none_even_when_in_vocabulary() -> None:
    vocab = {EntityId("A"), NONE_ENTITY}
    kept = filter_inkb([ann(0, 5, "A"), Annotation(Span(6, 9), NONE_ENTITY)], vocab)
    assert kept == [ann(0, 5, "A")]


def test_filter_inkb_drops_out_of_vocabulary() -> None:
    vocab = {EntityId("A")}
    assert filter_inkb([ann(0, 3, "A"), ann(4, 8, "Z")], vocab) == [ann(0, 3, "A")]


@given(annotations_strategy)
def test_filter_inkb_returns_subsequence(raw: list[Annotation]) -> None:
    vocab = {EntityId("A"), EntityId("B")}
    kept = filter_inkb(raw, vocab)
    it = iter(raw)
    assert all(k in it for k in kept)  # order-preserving subsequence
    assert all(a.entity in vocab and not a.entity.is_none for a in kept)


def test_document_rejects_overlapping_gold() -> None:
    with pytest.raises(InvalidSpan):
        AnnotatedDocument("d", "abcdefghij", gold=(ann(0, 5, "A"), ann(4, 8, "B")))


def test_document_rejects_out_of_bounds_span() -> None:
    with pytest.raises(InvalidSpan):
        AnnotatedDocument("d", "abc", gold=(ann(0, 4, "A"),))


def test_document_fields_are_tuples() -> None:
    doc = AnnotatedDocument("d", "abcdef", gold=[ann(0, 3, "A")])
    assert isinstance(doc.gold, tuple)
