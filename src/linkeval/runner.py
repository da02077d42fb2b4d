"""Benchmark runner: feed a corpus through an annotator and score it.

Annotators implement one method, ``annotate(text, doc_id)``, returning raw
(begin, end, entity) triples. Three implementations ship here: an
in-process one wrapping an AnnotationPipeline, an HTTP client speaking the
wire protocol against a running service, and one that replays a prediction
file. The first two produce byte-identical reports for the same linker,
segmentation and corpus (runtime aside).

Protocol failures are contained per document: the offending document is
scored with zero predictions and noted in the report, and the run
continues. Only an endpoint that cannot be connected to aborts the run.

The HTTP client keeps one persistent connection per thread, with
TCP_NODELAY set (http.client sets it on every socket it connects; the
service sets it on its side), so small requests and replies are not held
back by Nagle's algorithm meeting delayed ACK. Annotate is a pure function
of the text, so a request whose connection is lost (a reset, a keep-alive
socket the server closed, a reply cut short) is re-sent once on a fresh
connection. A second loss, a read timeout, a reply other than HTTP 200 or
a body that breaks the wire format is that document's protocol violation.
A connection that failed is closed, so a reply that arrives late is never
read as the next document's; bytes a lying Content-Length leaves behind
fail the next request's status line, which is re-sent.
"""

from __future__ import annotations

import http.client
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .conll import Corpus
from .errors import AnnotatorUnreachable, LinkEvalError, ProtocolViolation
from .linkers import DEFAULT_MAX_SPAN_TOKENS, DEFAULT_TOP_P
from .model import AnnotatedDocument, EntityId
from .scoring import (
    DocumentScore,
    ErrorBreakdown,
    EvaluationReport,
    MatchResult,
    combine_results,
    error_ratios,
    match_annotations,
    micro_prf,
)
from .service import AnnotateRequest, AnnotationPipeline, RawTriple, decode_response, encode_request, validate_triples

LINKER_CHOICES = ("prior_argmax", "coherence", "token_merge")
POLICY_CHOICES = ("dict", "full", "empty")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline and its run depend on besides the corpus.

    Each field is set by the CLI flag of the same name (``--n`` sets
    ``max_span_tokens``); a report's dataset is the corpus name.
    """

    policy: str = "dict"
    linker: str = "prior_argmax"
    dict_path: str | None = None
    vocab_path: str | None = None
    embeddings_path: str | None = None
    max_span_tokens: int = DEFAULT_MAX_SPAN_TOKENS
    max_tokens: int = 512
    top_p: int = DEFAULT_TOP_P
    parallel: int = 1

    def __post_init__(self) -> None:
        if self.policy not in POLICY_CHOICES:
            raise ValueError(f"policy must be one of {POLICY_CHOICES}, got {self.policy!r}")
        if self.linker not in LINKER_CHOICES:
            raise ValueError(f"linker must be one of {LINKER_CHOICES}, got {self.linker!r}")
        for name in ("max_span_tokens", "max_tokens", "top_p", "parallel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class Annotator(Protocol):
    def annotate(self, text: str, doc_id: str | None = None) -> Sequence[RawTriple]: ...


class InProcessAnnotator:
    """Runs the pipeline directly, no sockets involved."""

    def __init__(self, pipeline: AnnotationPipeline):
        self.pipeline = pipeline

    def annotate(self, text: str, doc_id: str | None = None) -> list[RawTriple]:
        return self.pipeline.annotate_triples(text)


class _Connection(http.client.HTTPConnection):
    """A keep-alive connection for which a failed connect means unreachable."""

    def connect(self) -> None:
        try:
            super().connect()
        except OSError as exc:
            self.close()  # back to idle, so a later request may try again
            raise AnnotatorUnreachable(f"cannot reach {self.host}:{self.port}: {exc}") from exc


# the connection was lost before a whole reply arrived; RemoteDisconnected is both
_LOST = (ConnectionError, http.client.BadStatusLine, http.client.IncompleteRead)


class HttpAnnotator:
    """Speaks the wire protocol against a running annotate service.

    ``endpoint`` is ``host:port`` or ``http://host:port``. Each thread that
    calls ``annotate`` keeps its own persistent connection; ``close``
    closes them all.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self._address = self.endpoint.removeprefix("http://")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[_Connection] = []

    def _connection(self) -> _Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _Connection(self._address, timeout=self.timeout)
            with self._lock:
                self._connections.append(connection)
        return connection

    @staticmethod
    def _send(connection: _Connection, body: bytes) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json; charset=utf-8"}
        connection.request("POST", "/annotate", body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """One POST /annotate and its reply's status and body.

        A failed connect raises AnnotatorUnreachable. A lost connection is
        re-sent once; any other failure closes the connection and raises
        ProtocolViolation.
        """
        connection = self._connection()
        try:
            try:
                return self._send(connection, body)
            except _LOST:
                connection.close()  # the re-sent request reconnects
                return self._send(connection, body)
        except (OSError, http.client.HTTPException) as exc:
            connection.close()  # a reply arriving late must not be read as the next one
            raise ProtocolViolation(f"POST /annotate failed: {type(exc).__name__}: {exc}") from exc

    def annotate(self, text: str, doc_id: str | None = None) -> list[RawTriple]:
        status, payload = self._exchange(encode_request(AnnotateRequest(text=text, doc_id=doc_id)))
        if status != 200:
            raise ProtocolViolation(f"annotate returned HTTP {status}")
        return decode_response(payload)

    def close(self) -> None:
        """Close every connection this annotator opened, from any thread.

        A thread that annotates again afterwards reconnects.
        """
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()


class PredictionFileAnnotator:
    """Replays predictions loaded from a file, keyed by document id."""

    def __init__(self, by_doc: Mapping[str, Sequence[RawTriple]]):
        self.by_doc = {k: list(v) for k, v in by_doc.items()}

    def annotate(self, text: str, doc_id: str | None = None) -> list[RawTriple]:
        if doc_id is None:
            return []
        return list(self.by_doc.get(doc_id, []))


def _score_document(
    doc: AnnotatedDocument,
    annotator: Annotator,
    vocabulary: frozenset[EntityId] | None,
) -> tuple[MatchResult, DocumentScore]:
    protocol_error: str | None = None
    try:
        triples = annotator.annotate(doc.text, doc.doc_id)
        predictions = validate_triples(triples, doc.text)
    except ProtocolViolation as exc:
        protocol_error = str(exc)
        predictions = []
    result = match_annotations(doc.gold, predictions, vocabulary)
    return result, DocumentScore.from_result(doc.doc_id, result, protocol_error)


def run_benchmark(
    corpus: Corpus,
    annotator: Annotator,
    config: RunConfig,
    vocabulary: frozenset[EntityId] | None = None,
) -> EvaluationReport:
    """Annotate every document, score it, and aggregate micro metrics.

    Scoring counts in-KB annotations only (model.filter_inkb): with no
    vocabulary, every entity but --NME--. A vocabulary that names no
    non-None entity raises LinkEvalError before any document is annotated.
    Documents run sequentially unless config.parallel is above 1; either
    way results aggregate in corpus order, so the report is deterministic.
    """
    if vocabulary is not None and all(entity.is_none for entity in vocabulary):
        raise LinkEvalError("vocabulary contains no linkable entities")
    started = time.perf_counter()
    if config.parallel > 1:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            scored = list(pool.map(lambda d: _score_document(d, annotator, vocabulary), corpus.documents))
    else:
        scored = [_score_document(doc, annotator, vocabulary) for doc in corpus.documents]
    runtime_ms = int((time.perf_counter() - started) * 1000)

    results = [result for result, _ in scored]
    per_document = tuple(score for _, score in scored)
    merged = combine_results(results)
    precision, recall, f1 = micro_prf(merged)
    if merged.gold_count > 0:
        breakdown = error_ratios(merged)
    else:
        breakdown = ErrorBreakdown(0.0, 0.0, 0.0, 0.0)
    return EvaluationReport(
        dataset=corpus.name,
        micro_precision=precision,
        micro_recall=recall,
        micro_f1=f1,
        breakdown=breakdown,
        per_document=per_document,
        runtime_ms=runtime_ms,
    )
