"""Strong-matching evaluation with a four-way error breakdown.

A prediction counts as correct only when both its span and its entity
match a gold annotation exactly. Every prediction that is not correct
falls into exactly one error category:

* incorrect entity: right span, wrong entity;
* incorrect mention: right entity, overlapping but non-identical span;
* over-generated: everything else.

Gold annotations that no prediction even overlaps are under-generated.
Both sides are first restricted to in-KB annotations by model.filter_inkb:
with a scoring vocabulary, its non-None entities; without one, every
entity but --NME--. Out-of-KB material never influences the counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import DatasetMismatch, OverlappingGold, ZeroGold
from .model import Annotation, EntityId, filter_inkb, normalize_annotations


@dataclass(frozen=True)
class MatchResult:
    """Classified annotations for one document (or a merged set of them)."""

    true_positives: tuple[tuple[Annotation, Annotation], ...]
    incorrect_entity: tuple[Annotation, ...]
    incorrect_mention: tuple[Annotation, ...]
    over_generated: tuple[Annotation, ...]
    under_generated: tuple[Annotation, ...]
    gold_count: int
    pred_count: int

    def __post_init__(self) -> None:
        classified = (
            len(self.true_positives)
            + len(self.incorrect_entity)
            + len(self.incorrect_mention)
            + len(self.over_generated)
        )
        if classified != self.pred_count:
            raise ValueError(f"prediction categories sum to {classified}, expected {self.pred_count}")

    @property
    def tp_count(self) -> int:
        return len(self.true_positives)


def match_annotations(
    gold: Sequence[Annotation],
    predicted: Sequence[Annotation],
    vocabulary: frozenset[EntityId] | set[EntityId] | None,
) -> MatchResult:
    """Classify the in-KB predictions against the in-KB gold annotations.

    Both sides are filtered by filter_inkb: a vocabulary keeps its non-None
    members, None keeps every entity but --NME--.

    Matching runs in five deterministic passes over (begin, end, entity)
    ordered annotations: exact matches first, then wrong-entity exact
    spans, then same-entity overlaps, then leftovers as over-generation;
    finally golds that no prediction overlaps are under-generated. Each
    gold matches at most one prediction exactly.

    Either side may arrive in any order. Gold spans must be pairwise
    disjoint (OverlappingGold otherwise): that is what lets pass 3 bisect
    sorted gold ends and pass 5 sorted prediction begins, so a document
    with G golds and P predictions costs O((G + P) log(G + P)), sorting
    included, where a pairwise comparison would cost O(G * P).
    """
    gold_sorted = normalize_annotations(gold)
    for prev, cur in zip(gold_sorted, gold_sorted[1:]):
        if prev.span.overlaps(cur.span):
            raise OverlappingGold(
                f"gold spans ({prev.span.begin}, {prev.span.end}) and ({cur.span.begin}, {cur.span.end}) overlap"
            )
    gold_inkb = filter_inkb(gold_sorted, vocabulary)
    pred_inkb = filter_inkb(normalize_annotations(predicted), vocabulary)

    # matched golds are flagged by index; after filter_inkb no entity is the
    # None entity, so comparing entity ids is comparing entities
    taken = [False] * len(gold_inkb)
    pending: list[Annotation] = []
    true_positives: list[tuple[Annotation, Annotation]] = []

    # disjoint gold spans are distinct, so a span names at most one gold
    by_span = {(g.span.begin, g.span.end): i for i, g in enumerate(gold_inkb)}

    # pass 1: exact span and entity
    for pred in pred_inkb:
        i = by_span.get((pred.span.begin, pred.span.end))
        if i is not None and not taken[i] and gold_inkb[i].entity.id == pred.entity.id:
            taken[i] = True
            true_positives.append((gold_inkb[i], pred))
        else:
            pending.append(pred)

    # pass 2: exact span, different entity
    incorrect_entity: list[Annotation] = []
    still_pending: list[Annotation] = []
    for pred in pending:
        i = by_span.get((pred.span.begin, pred.span.end))
        if i is not None and not taken[i] and gold_inkb[i].entity.id != pred.entity.id:
            incorrect_entity.append(pred)
        else:
            still_pending.append(pred)
    pending = still_pending

    # pass 3: same entity, overlapping but non-identical span. Disjoint
    # golds have ascending ends, so of one entity's untaken golds only the
    # first that ends after pred.begin can overlap the prediction.
    open_golds: dict[str, tuple[list[int], list[int]]] = {}
    for g, is_taken in zip(gold_inkb, taken):
        if not is_taken:
            begins, ends = open_golds.setdefault(g.entity.id, ([], []))
            begins.append(g.span.begin)
            ends.append(g.span.end)
    incorrect_mention: list[Annotation] = []
    still_pending = []
    for pred in pending:
        begins, ends = open_golds.get(pred.entity.id, ((), ()))
        i = bisect_right(ends, pred.span.begin)
        if i < len(ends) and begins[i] < pred.span.end:
            incorrect_mention.append(pred)
        else:
            still_pending.append(pred)

    # pass 4: everything left over
    over_generated = still_pending

    # pass 5: golds that no prediction overlaps at all. Predictions are
    # sorted by begin; reach[k] is the furthest end among the first k + 1.
    # A gold [b, e) is overlapped iff some prediction beginning before e
    # ends after b.
    pred_begins = [p.span.begin for p in pred_inkb]
    reach = list(accumulate((p.span.end for p in pred_inkb), max))
    under_generated = []
    for g, is_taken in zip(gold_inkb, taken):
        if not is_taken:
            k = bisect_left(pred_begins, g.span.end)
            if k == 0 or reach[k - 1] <= g.span.begin:
                under_generated.append(g)

    return MatchResult(
        true_positives=tuple(true_positives),
        incorrect_entity=tuple(incorrect_entity),
        incorrect_mention=tuple(incorrect_mention),
        over_generated=tuple(over_generated),
        under_generated=tuple(under_generated),
        gold_count=len(gold_inkb),
        pred_count=len(pred_inkb),
    )


def combine_results(results: Iterable[MatchResult]) -> MatchResult:
    """Concatenate per-document results into one corpus-level result."""
    tp: list[tuple[Annotation, Annotation]] = []
    ie: list[Annotation] = []
    im: list[Annotation] = []
    og: list[Annotation] = []
    ug: list[Annotation] = []
    gold_count = 0
    pred_count = 0
    for r in results:
        tp.extend(r.true_positives)
        ie.extend(r.incorrect_entity)
        im.extend(r.incorrect_mention)
        og.extend(r.over_generated)
        ug.extend(r.under_generated)
        gold_count += r.gold_count
        pred_count += r.pred_count
    return MatchResult(tuple(tp), tuple(ie), tuple(im), tuple(og), tuple(ug), gold_count, pred_count)


def micro_prf(results: Sequence[MatchResult] | MatchResult) -> tuple[float, float, float]:
    """Micro precision, recall and F1 over one or more match results.

    With zero predictions precision is 1.0, with zero golds recall is 1.0;
    F1 is 0.0 when precision + recall is zero.
    """
    if isinstance(results, MatchResult):
        results = [results]
    tp = sum(r.tp_count for r in results)
    pred = sum(r.pred_count for r in results)
    gold = sum(r.gold_count for r in results)
    precision = tp / pred if pred > 0 else 1.0
    recall = tp / gold if gold > 0 else 1.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall > 0 else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class ErrorBreakdown:
    """The four error counts normalized by the gold annotation count."""

    over_generated: float
    under_generated: float
    incorrect_entity: float
    incorrect_mention: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.over_generated, self.under_generated, self.incorrect_entity, self.incorrect_mention)


def error_ratios(result: MatchResult) -> ErrorBreakdown:
    """Each error count divided by the gold count."""
    if result.gold_count <= 0:
        raise ZeroGold("error ratios are undefined without gold annotations")
    denom = result.gold_count
    return ErrorBreakdown(
        over_generated=len(result.over_generated) / denom,
        under_generated=len(result.under_generated) / denom,
        incorrect_entity=len(result.incorrect_entity) / denom,
        incorrect_mention=len(result.incorrect_mention) / denom,
    )


@dataclass(frozen=True)
class DocumentScore:
    """Per-document count summary, including any protocol failure note."""

    doc_id: str
    true_positives: int
    incorrect_entity: int
    incorrect_mention: int
    over_generated: int
    under_generated: int
    gold_count: int
    pred_count: int
    protocol_error: str | None = None

    @classmethod
    def from_result(cls, doc_id: str, result: MatchResult, protocol_error: str | None = None) -> "DocumentScore":
        return cls(
            doc_id=doc_id,
            true_positives=result.tp_count,
            incorrect_entity=len(result.incorrect_entity),
            incorrect_mention=len(result.incorrect_mention),
            over_generated=len(result.over_generated),
            under_generated=len(result.under_generated),
            gold_count=result.gold_count,
            pred_count=result.pred_count,
            protocol_error=protocol_error,
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Corpus-level metrics plus per-document summaries."""

    dataset: str
    micro_precision: float
    micro_recall: float
    micro_f1: float
    breakdown: ErrorBreakdown
    per_document: tuple[DocumentScore, ...]
    runtime_ms: int

    def without_runtime(self) -> "EvaluationReport":
        """Copy with the runtime zeroed, for run-to-run comparisons."""
        return replace(self, runtime_ms=0)


def pr_delta(baseline: EvaluationReport, ablated: EvaluationReport) -> tuple[float, float]:
    """Precision and recall movement in percentage points, ablated - baseline."""
    if baseline.dataset != ablated.dataset:
        raise DatasetMismatch(f"cannot compare {baseline.dataset!r} with {ablated.dataset!r}")
    return (
        100.0 * (ablated.micro_precision - baseline.micro_precision),
        100.0 * (ablated.micro_recall - baseline.micro_recall),
    )
