from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import VOCAB_5, ann, random_gold, random_predictions
from oracles import oracle_classify, oracle_match
from linkeval import (
    DocumentScore,
    ErrorBreakdown,
    EvaluationReport,
    MatchResult,
    combine_results,
    error_ratios,
    match_annotations,
    micro_prf,
    pr_delta,
)
from linkeval.errors import DatasetMismatch, OverlappingGold, ZeroGold

ABC_VOCAB = frozenset(ann(0, 1, e).entity for e in ("A", "B", "C", "X"))


def counts(result: MatchResult) -> tuple[int, int, int, int, int]:
    return (
        result.tp_count,
        len(result.incorrect_entity),
        len(result.incorrect_mention),
        len(result.over_generated),
        len(result.under_generated),
    )


def test_perfect_match() -> None:
    result = match_annotations([ann(0, 5, "A")], [ann(0, 5, "A")], ABC_VOCAB)
    assert counts(result) == (1, 0, 0, 0, 0)
    assert result.gold_count == result.pred_count == 1


def test_wrong_entity_same_span() -> None:
    result = match_annotations([ann(0, 5, "A")], [ann(0, 5, "X")], ABC_VOCAB)
    assert counts(result) == (0, 1, 0, 0, 0)


def test_three_prediction_trace() -> None:
    gold = [ann(0, 5, "A"), ann(10, 15, "B")]
    pred = [ann(0, 5, "A"), ann(10, 14, "B"), ann(20, 25, "C")]
    result = match_annotations(gold, pred, ABC_VOCAB)
    assert counts(result) == (1, 0, 1, 1, 0)
    assert result.true_positives == ((ann(0, 5, "A"), ann(0, 5, "A")),)
    assert result.incorrect_mention == (ann(10, 14, "B"),)
    assert result.over_generated == (ann(20, 25, "C"),)


def test_missed_gold_is_under_generated() -> None:
    result = match_annotations([ann(0, 5, "A"), ann(10, 15, "B")], [ann(0, 5, "A")], ABC_VOCAB)
    assert counts(result) == (1, 0, 0, 0, 1)
    assert result.under_generated == (ann(10, 15, "B"),)


def test_overlapped_gold_not_under_generated() -> None:
    # the wrong-entity prediction still "covers" the gold span
    result = match_annotations([ann(0, 5, "A")], [ann(2, 4, "X")], ABC_VOCAB)
    assert counts(result) == (0, 0, 0, 1, 0)


def test_none_and_out_of_vocab_are_invisible() -> None:
    gold = [ann(0, 5, "A"), ann(10, 15, "--NME--"), ann(20, 25, "NOT_IN_VOCAB")]
    pred = [ann(0, 5, "A"), ann(10, 15, "--NME--"), ann(20, 25, "NOT_IN_VOCAB")]
    result = match_annotations(gold, pred, ABC_VOCAB)
    assert counts(result) == (1, 0, 0, 0, 0)
    assert result.gold_count == result.pred_count == 1


def test_duplicate_predictions_collapse() -> None:
    result = match_annotations([ann(0, 5, "A")], [ann(0, 5, "A"), ann(0, 5, "A")], ABC_VOCAB)
    assert counts(result) == (1, 0, 0, 0, 0)
    assert result.pred_count == 1


def test_each_gold_matched_at_most_once() -> None:
    gold = [ann(0, 5, "A")]
    pred = [ann(0, 5, "A"), ann(2, 7, "A")]
    result = match_annotations(gold, pred, ABC_VOCAB)
    # second prediction overlaps a gold that is already taken → over-generated
    assert counts(result) == (1, 0, 0, 1, 0)


def test_overlapping_gold_rejected() -> None:
    with pytest.raises(OverlappingGold):
        match_annotations([ann(0, 5, "A"), ann(3, 8, "B")], [], ABC_VOCAB)


def test_symmetric_sanity_random() -> None:
    rng = random.Random(11)
    for _ in range(50):
        gold = random_gold(rng)
        result = match_annotations(gold, gold, VOCAB_5)
        inkb = sum(1 for a in gold if not a.entity.is_none and a.entity in VOCAB_5)
        assert counts(result) == (inkb, 0, 0, 0, 0)


def test_permutation_invariance() -> None:
    rng = random.Random(13)
    for _ in range(50):
        gold = random_gold(rng)
        pred = random_predictions(rng)
        base = counts(match_annotations(gold, pred, VOCAB_5))
        for _ in range(3):
            rng.shuffle(gold)
            rng.shuffle(pred)
            assert counts(match_annotations(gold, pred, VOCAB_5)) == base


def test_matches_brute_force_oracle() -> None:
    rng = random.Random(17)
    for _ in range(300):
        gold = random_gold(rng)
        pred = random_predictions(rng)
        result = match_annotations(gold, pred, VOCAB_5)
        expected = oracle_match(gold, pred, VOCAB_5)
        assert result.tp_count == expected["tp"]
        assert len(result.incorrect_entity) == expected["incorrect_entity"]
        assert len(result.incorrect_mention) == expected["incorrect_mention"]
        assert len(result.over_generated) == expected["over_generated"]
        assert len(result.under_generated) == expected["under_generated"]
        assert result.gold_count == expected["gold_count"]
        assert result.pred_count == expected["pred_count"]


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_no_vocabulary_means_every_named_entity(rng) -> None:
    gold = random_gold(rng, max_count=20)
    pred = random_predictions(rng, max_count=20)
    named = {a.entity for a in gold + pred if not a.entity.is_none}
    result = match_annotations(gold, pred, None)
    assert result == match_annotations(gold, pred, named)
    expected = oracle_classify(gold, pred, named)
    assert {field: getattr(result, field) for field in expected} == expected


# entities: two in the vocabulary, the None entity and one out of it
CLASSIFY_ENTITIES = ("A", "B", "--NME--", "NOT_IN_VOCAB")


@st.composite
def scoring_instances(draw) -> tuple[list, list]:
    """Disjoint golds, and predictions whose ends sit on or next to gold ends.

    Drawing prediction offsets from the gold boundaries (and one off them)
    yields predictions that end exactly where a gold begins, begin exactly
    where one ends, repeat a gold span or cover several golds.
    """
    entity = st.sampled_from(CLASSIFY_ENTITIES)
    gold = []
    pos = 0
    for gap, length, name in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4), entity), max_size=8)):
        pos += gap
        gold.append(ann(pos, pos + length, name))
        pos += length
    bounds = {0, pos + 2} | {b for g in gold for b in (g.span.begin, g.span.end)}
    offsets = sorted({o + d for o in bounds for d in (-1, 0, 1) if o + d >= 0})
    spans = st.tuples(st.sampled_from(offsets), st.sampled_from(offsets)).filter(lambda be: be[0] < be[1])
    predicted = [ann(b, e, name) for (b, e), name in draw(st.lists(st.tuples(spans, entity), max_size=14))]
    if predicted:
        predicted += draw(st.lists(st.sampled_from(predicted), max_size=3))
    return draw(st.permutations(gold)), draw(st.permutations(predicted))


@given(instance=scoring_instances())
@example(
    # [2, 5) overlaps the taken gold [0, 3) and the untaken same-entity gold [4, 6)
    instance=([ann(0, 3, "A"), ann(4, 6, "A")], [ann(0, 3, "A"), ann(2, 5, "A")]),
)
@example(
    # [3, 5) begins where one A gold ends and ends where the other begins
    instance=([ann(0, 3, "A"), ann(5, 7, "A")], [ann(3, 5, "A")]),
)
@example(
    # [0, 9) covers both golds; the later, shorter [1, 2) must not hide it
    instance=([ann(2, 3, "A"), ann(5, 7, "B")], [ann(0, 9, "B"), ann(1, 2, "A"), ann(1, 2, "A")]),
)
@settings(max_examples=400, deadline=None)
def test_classification_matches_oracle(instance: tuple[list, list]) -> None:
    gold, predicted = instance
    result = match_annotations(gold, predicted, ABC_VOCAB)
    expected = oracle_classify(gold, predicted, ABC_VOCAB)
    assert {field: getattr(result, field) for field in expected} == expected


def test_monotonicity_adding_exact_match() -> None:
    rng = random.Random(19)
    for _ in range(100):
        gold = random_gold(rng)
        pred = random_predictions(rng)
        before = micro_prf(match_annotations(gold, pred, VOCAB_5))[2]
        result = match_annotations(gold, pred, VOCAB_5)
        matched = {g for g, _ in result.true_positives}
        unmatched = [
            g
            for g in gold
            if g not in matched and not g.entity.is_none and g.entity in VOCAB_5
        ]
        if not unmatched:
            continue
        after = micro_prf(match_annotations(gold, pred + [unmatched[0]], VOCAB_5))[2]
        assert after >= before - 1e-12


def test_partition_invariant_enforced() -> None:
    with pytest.raises(ValueError):
        MatchResult((), (), (), (), (), gold_count=0, pred_count=3)


def test_micro_prf_example() -> None:
    result = MatchResult(
        true_positives=tuple((ann(i, i + 1, "A"), ann(i, i + 1, "A")) for i in range(0, 6, 2)),
        incorrect_entity=(),
        incorrect_mention=(),
        over_generated=(ann(10, 11, "B"), ann(12, 13, "B")),
        under_generated=(ann(20, 21, "C"),),
        gold_count=4,
        pred_count=5,
    )
    p, r, f1 = micro_prf(result)
    assert p == pytest.approx(0.6, abs=1e-9)
    assert r == pytest.approx(0.75, abs=1e-9)
    assert f1 == pytest.approx(2 / 3, abs=1e-9)


def test_micro_prf_vacuous_perfection() -> None:
    empty = MatchResult((), (), (), (), (), gold_count=0, pred_count=0)
    assert micro_prf(empty) == (1.0, 1.0, 1.0)


def test_micro_prf_all_wrong() -> None:
    result = MatchResult(
        (), (), (), tuple(ann(i, i + 1, "B") for i in range(0, 8, 2)), (), gold_count=3, pred_count=4
    )
    p, r, f1 = micro_prf(result)
    assert p == 0.0 and f1 == 0.0


def test_micro_prf_silent_annotator() -> None:
    result = MatchResult((), (), (), (), (ann(0, 5, "A"),), gold_count=1, pred_count=0)
    p, r, f1 = micro_prf(result)
    assert (p, r, f1) == (1.0, 0.0, 0.0)


def test_micro_prf_accepts_sequences() -> None:
    a = match_annotations([ann(0, 5, "A")], [ann(0, 5, "A")], ABC_VOCAB)
    b = match_annotations([ann(0, 5, "B")], [], ABC_VOCAB)
    assert micro_prf([a, b]) == micro_prf(combine_results([a, b]))


def test_combine_results_sums_counts() -> None:
    rng = random.Random(23)
    parts = [
        match_annotations(random_gold(rng), random_predictions(rng), VOCAB_5) for _ in range(5)
    ]
    merged = combine_results(parts)
    assert merged.gold_count == sum(p.gold_count for p in parts)
    assert merged.pred_count == sum(p.pred_count for p in parts)
    assert merged.tp_count == sum(p.tp_count for p in parts)


def test_error_ratios_corpus_scale() -> None:
    result = MatchResult(
        true_positives=(),
        incorrect_entity=(),
        incorrect_mention=(),
        over_generated=tuple(ann(3 * i, 3 * i + 2, "A") for i in range(311)),
        under_generated=(),
        gold_count=4791,
        pred_count=311,
    )
    breakdown = error_ratios(result)
    assert breakdown.over_generated == pytest.approx(311 / 4791, abs=1e-9)
    assert round(breakdown.over_generated, 4) == 0.0649
    assert breakdown.under_generated == 0.0
    assert breakdown.incorrect_entity == 0.0
    assert breakdown.incorrect_mention == 0.0


def test_error_ratios_all_zero() -> None:
    result = match_annotations([ann(0, 5, "A")], [ann(0, 5, "A")], ABC_VOCAB)
    assert error_ratios(result).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_error_ratios_half_each() -> None:
    result = MatchResult(
        true_positives=(),
        incorrect_entity=(ann(0, 2, "A"),),
        incorrect_mention=(ann(4, 6, "B"),),
        over_generated=(ann(8, 10, "C"),),
        under_generated=(ann(12, 14, "A"),),
        gold_count=2,
        pred_count=3,
    )
    assert error_ratios(result).as_tuple() == (0.5, 0.5, 0.5, 0.5)


def test_error_ratios_zero_gold() -> None:
    with pytest.raises(ZeroGold):
        error_ratios(MatchResult((), (), (), (), (), gold_count=0, pred_count=0))


def report(dataset: str, p: float, r: float) -> EvaluationReport:
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return EvaluationReport(
        dataset=dataset,
        micro_precision=p,
        micro_recall=r,
        micro_f1=f1,
        breakdown=ErrorBreakdown(0.0, 0.0, 0.0, 0.0),
        per_document=(),
        runtime_ms=7,
    )


def test_pr_delta_identity() -> None:
    assert pr_delta(report("d", 0.5, 0.5), report("d", 0.5, 0.5)) == (0.0, 0.0)


def test_pr_delta_large_recall_drop() -> None:
    dp, dr = pr_delta(report("d", 0.9, 0.85), report("d", 0.9, 0.1873))
    assert dp == pytest.approx(0.0, abs=1e-9)
    assert dr == pytest.approx(-66.27, abs=1e-9)


def test_pr_delta_precision_gain() -> None:
    dp, _ = pr_delta(report("d", 0.5, 0.5), report("d", 0.6, 0.5))
    assert dp == pytest.approx(10.0, abs=1e-9)


def test_pr_delta_dataset_mismatch() -> None:
    with pytest.raises(DatasetMismatch):
        pr_delta(report("a", 0.5, 0.5), report("b", 0.5, 0.5))


def test_document_score_from_result() -> None:
    result = match_annotations([ann(0, 5, "A"), ann(10, 15, "B")], [ann(0, 5, "A")], ABC_VOCAB)
    score = DocumentScore.from_result("doc-1", result)
    assert score.doc_id == "doc-1"
    assert score.true_positives == 1
    assert score.under_generated == 1
    assert score.gold_count == 2
    assert score.pred_count == 1
    assert score.protocol_error is None


def test_without_runtime_zeroes_only_runtime() -> None:
    r = report("d", 0.5, 0.5)
    stripped = r.without_runtime()
    assert stripped.runtime_ms == 0
    assert stripped.micro_precision == r.micro_precision
    assert stripped.dataset == r.dataset
