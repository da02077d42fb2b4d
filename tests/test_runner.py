from __future__ import annotations

from contextlib import closing

import pytest

from conftest import FIXTURE_DICT_TSV, ann
from linkeval import (
    NONE_ENTITY,
    AnnotationPipeline,
    CandidateMode,
    CandidatePolicy,
    EntityId,
    HttpAnnotator,
    InProcessAnnotator,
    PredictionFileAnnotator,
    RunConfig,
    link_prior_argmax,
    load_alias_dictionary,
    parse_conll,
    run_benchmark,
    serve,
)
from linkeval.errors import AnnotatorUnreachable, LinkEvalError

PERFECTION_CONLL = b"""-DOCSTART- (p1)
Japan B JAPAN_NT
won O

-DOCSTART- (p2)
Syria B SYRIA_NT
lost O

-DOCSTART- (p3)
Japan B JAPAN_NT
beat O
Syria B SYRIA_NT
. O
"""


def fixture_pipeline() -> AnnotationPipeline:
    policy = CandidatePolicy(
        CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(FIXTURE_DICT_TSV)
    )
    return AnnotationPipeline(
        lambda text: link_prior_argmax(text, policy), name="prior"
    )


def perfection_corpus():
    return parse_conll(PERFECTION_CONLL, name="perfection")


def test_run_config_validation() -> None:
    with pytest.raises(ValueError):
        RunConfig(policy="nonsense")
    with pytest.raises(ValueError):
        RunConfig(linker="nonsense")
    with pytest.raises(ValueError):
        RunConfig(parallel=0)


def test_in_process_perfection() -> None:
    report = run_benchmark(
        perfection_corpus(), InProcessAnnotator(fixture_pipeline()), RunConfig()
    )
    assert report.micro_precision == 1.0
    assert report.micro_recall == 1.0
    assert report.micro_f1 == 1.0
    assert report.breakdown.as_tuple() == (0.0, 0.0, 0.0, 0.0)
    assert len(report.per_document) == 3
    assert all(d.protocol_error is None for d in report.per_document)
    assert report.dataset == "perfection"
    assert report.runtime_ms >= 0


def test_parallel_equals_sequential() -> None:
    corpus = perfection_corpus()
    annotator = InProcessAnnotator(fixture_pipeline())
    sequential = run_benchmark(corpus, annotator, RunConfig(parallel=1))
    parallel = run_benchmark(corpus, annotator, RunConfig(parallel=4))
    assert parallel.without_runtime() == sequential.without_runtime()


class SilentAnnotator:
    def annotate(self, text: str, doc_id: str | None = None):
        return []


def test_silent_annotator_zero_recall() -> None:
    report = run_benchmark(perfection_corpus(), SilentAnnotator(), RunConfig())
    assert report.micro_precision == 1.0
    assert report.micro_recall == 0.0
    assert report.micro_f1 == 0.0
    assert report.breakdown.under_generated == 1.0


class BadSpanAnnotator:
    """Violates the protocol on one document, behaves on the rest."""

    def __init__(self, inner, bad_doc_id: str):
        self.inner = inner
        self.bad_doc_id = bad_doc_id

    def annotate(self, text: str, doc_id: str | None = None):
        if doc_id == self.bad_doc_id:
            return [(0, 10_000, "JAPAN_NT")]
        return self.inner.annotate(text, doc_id)


def test_protocol_violation_is_contained_per_document() -> None:
    annotator = BadSpanAnnotator(InProcessAnnotator(fixture_pipeline()), bad_doc_id="p2")
    report = run_benchmark(perfection_corpus(), annotator, RunConfig())
    by_id = {d.doc_id: d for d in report.per_document}
    assert by_id["p2"].protocol_error is not None
    assert by_id["p2"].pred_count == 0
    assert by_id["p2"].under_generated == 1
    assert by_id["p1"].protocol_error is None
    assert by_id["p1"].true_positives == 1
    # p1 and p3 are still perfect: 3 of 4 golds found
    assert report.micro_precision == 1.0
    assert report.micro_recall == pytest.approx(3 / 4)


def test_unreachable_endpoint_aborts() -> None:
    annotator = HttpAnnotator("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(AnnotatorUnreachable):
        run_benchmark(perfection_corpus(), annotator, RunConfig())


def test_http_equals_in_process() -> None:
    service = serve(fixture_pipeline())
    service.start_background()
    try:
        corpus = perfection_corpus()
        with closing(HttpAnnotator(service.endpoint)) as annotator:
            networked = run_benchmark(corpus, annotator, RunConfig())
        local = run_benchmark(
            corpus, InProcessAnnotator(fixture_pipeline()), RunConfig()
        )
        assert networked.without_runtime() == local.without_runtime()
        assert networked.micro_f1 == 1.0
    finally:
        service.stop()


def test_prediction_file_annotator_replays_by_doc_id() -> None:
    by_doc = {
        "p1": [(0, 5, "JAPAN_NT")],
        "p2": [(0, 5, "SYRIA_NT")],
        "p3": [(0, 5, "JAPAN_NT"), (11, 16, "SYRIA_NT")],
    }
    report = run_benchmark(
        perfection_corpus(), PredictionFileAnnotator(by_doc), RunConfig()
    )
    assert report.micro_f1 == 1.0
    assert PredictionFileAnnotator(by_doc).annotate("whatever", None) == []
    assert PredictionFileAnnotator(by_doc).annotate("whatever", "unknown") == []


def test_goldless_corpus_yields_zero_breakdown() -> None:
    corpus = parse_conll(b"-DOCSTART- (g1)\nhello O\nworld O\n", name="goldless")
    report = run_benchmark(corpus, SilentAnnotator(), RunConfig())
    assert report.micro_precision == 1.0
    assert report.micro_recall == 1.0
    assert report.breakdown.as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_explicit_vocabulary_restricts_scoring() -> None:
    corpus = perfection_corpus()
    annotator = InProcessAnnotator(fixture_pipeline())
    only_japan = frozenset({EntityId("JAPAN_NT")})
    report = run_benchmark(corpus, annotator, RunConfig(), vocabulary=only_japan)
    # Syria annotations vanish from both sides: still perfect, smaller totals
    assert report.micro_f1 == 1.0
    assert sum(d.gold_count for d in report.per_document) == 2


def test_no_vocabulary_counts_predicted_entities_the_gold_does_not_name() -> None:
    by_doc = {"p3": [(0, 5, "JAPAN_NT"), (11, 16, "CHINA_NT")]}
    report = run_benchmark(perfection_corpus(), PredictionFileAnnotator(by_doc), RunConfig())
    p3 = report.per_document[2]
    assert (p3.true_positives, p3.incorrect_entity, p3.pred_count) == (1, 1, 2)


class UnreachedAnnotator:
    def annotate(self, text: str, doc_id: str | None = None) -> list:
        raise AssertionError("a document was annotated")


@pytest.mark.parametrize("vocabulary", [frozenset(), frozenset({NONE_ENTITY})], ids=["empty", "nme-only"])
def test_vocabulary_without_linkable_entity_fails_before_annotating(vocabulary: frozenset) -> None:
    with pytest.raises(LinkEvalError, match="^vocabulary contains no linkable entities$"):
        run_benchmark(perfection_corpus(), UnreachedAnnotator(), RunConfig(), vocabulary=vocabulary)
