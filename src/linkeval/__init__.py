"""linkeval: a black-box entity linking evaluation harness.

Documents go in over a small annotate protocol, (begin, end, entity)
triples come back, and the scorer turns them into strong-matching micro
precision/recall/F1 plus a four-way error breakdown. Ships with corpus
adapters, candidate-set policies for ablation studies, and small
reference linkers.
"""

from .adapters import Segment, SubtokenMap, merge_segment_annotations, split_document, subtoken_to_char, tokenize
from .candidates import (
    AliasDictionary,
    CandidateMode,
    CandidatePolicy,
    CandidateSet,
    EntityTrie,
    build_trie,
    candidates_for,
    load_alias_dictionary,
    load_vocabulary,
)
from .conll import ConllLayout, Corpus, parse_conll, reconstruct_text
from .linkers import (
    CoherenceParams,
    EmbeddingTable,
    TokenPrediction,
    coherence_score,
    constrained_beam_decode,
    enumerate_token_windows,
    link_coherence_rerank,
    link_prior_argmax,
    link_token_merge,
    load_embeddings,
    merge_token_predictions,
    score_candidates,
)
from .model import (
    NONE_ENTITY,
    NONE_ENTITY_ID,
    AnnotatedDocument,
    Annotation,
    EntityId,
    Span,
    TokenSpan,
    filter_inkb,
    make_entity,
    normalize_annotations,
)
from .reports import (
    csv_row,
    delta_row,
    emit_report,
    ratio_row,
    summary_text,
    write_delta_file,
    write_ratio_file,
)
from .runner import (
    HttpAnnotator,
    InProcessAnnotator,
    PredictionFileAnnotator,
    RunConfig,
    derive_vocabulary,
    run_benchmark,
)
from .scoring import (
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
from .service import (
    AnnotateRequest,
    AnnotateResponse,
    AnnotationPipeline,
    AnnotatorService,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    serve,
    validate_triples,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
