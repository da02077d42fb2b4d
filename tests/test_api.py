"""The package's public names, pinned.

A name added to or dropped from ``linkeval.__all__`` shows up as a diff
of this list, so the size of the public API is reviewed, not grown by
accident. The submodules are not public names: ``from linkeval import *``
binds none of them.
"""

from __future__ import annotations

from types import ModuleType

import linkeval

PUBLIC_NAMES = [
    "AliasDictionary",
    "AnnotateRequest",
    "AnnotatedDocument",
    "Annotation",
    "AnnotationPipeline",
    "AnnotatorService",
    "CandidateMode",
    "CandidatePolicy",
    "CandidateSet",
    "CoherenceParams",
    "ConllLayout",
    "Corpus",
    "DocumentScore",
    "EmbeddingTable",
    "EntityId",
    "EntityTrie",
    "ErrorBreakdown",
    "EvaluationReport",
    "HttpAnnotator",
    "InProcessAnnotator",
    "MatchResult",
    "NONE_ENTITY",
    "NONE_ENTITY_ID",
    "PredictionFileAnnotator",
    "RunConfig",
    "Segment",
    "Span",
    "SubtokenMap",
    "TokenSpan",
    "build_trie",
    "candidates_for",
    "coherence_score",
    "combine_results",
    "constrained_beam_decode",
    "csv_row",
    "decode_request",
    "decode_response",
    "delta_row",
    "emit_report",
    "encode_request",
    "encode_response",
    "enumerate_token_windows",
    "error_ratios",
    "filter_inkb",
    "link_coherence_rerank",
    "link_prior_argmax",
    "link_token_merge",
    "load_alias_dictionary",
    "load_embeddings",
    "load_vocabulary",
    "make_entity",
    "match_annotations",
    "merge_segment_annotations",
    "micro_prf",
    "normalize_annotations",
    "parse_conll",
    "pr_delta",
    "ratio_row",
    "reconstruct_text",
    "run_benchmark",
    "score_candidates",
    "serve",
    "split_document",
    "subtoken_to_char",
    "summary_text",
    "tokenize",
    "validate_triples",
    "write_delta_file",
    "write_ratio_file",
]


def test_public_api_is_pinned() -> None:
    assert sorted(linkeval.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_module() -> None:
    namespace: dict = {}
    exec("from linkeval import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
