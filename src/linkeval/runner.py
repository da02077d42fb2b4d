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

The HTTP client keeps one persistent socket per thread and frames
HTTP/1.1 itself: each request's head and body go out in one write, and
the reply's status line, headers and exactly Content-Length body bytes
are read through a buffered reader. It sets TCP_NODELAY on each socket
(the service sets it on its side), so small requests and replies are not
held back by Nagle's algorithm meeting delayed ACK. A failed connect
raises AnnotatorUnreachable. Annotate is a pure function of the text, so
a request whose connection is lost (a reset, a keep-alive socket the
server closed, a reply cut short) is re-sent once on a fresh socket. A
second loss, a read timeout, a reply other than HTTP 200, a reply without
a Content-Length or a body that breaks the wire format is that
document's protocol violation. A socket that failed is closed, so a reply
that arrives late is never read as the next document's; bytes a lying
Content-Length leaves behind fail the next request's status line, which
is re-sent. A reply with ``Connection: close`` closes the socket after
it, and the next request reconnects.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Mapping, Protocol, Sequence

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
from .service import (
    MAX_LINE_BYTES,
    AnnotateRequest,
    AnnotationPipeline,
    RawTriple,
    decode_response,
    encode_request,
    read_headers,
    validate_triples,
)

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


_MAX_LENGTH_DIGITS = 15  # a reply's Content-Length; int() refuses 4300+ digits
_READ_CHUNK_BYTES = 1 << 20


def parse_endpoint(value: str) -> tuple[str, int]:
    """(host, port) of ``host:port`` or ``http://host:port``: port 0-65535, no path, IPv6 brackets stripped."""
    host, _, port_text = value.removeprefix("http://").rstrip("/").rpartition(":")
    port = int(port_text) if len(port_text) <= 5 and port_text.isascii() and port_text.isdigit() else -1
    if not host or "/" in host or not 0 <= port <= 65535:
        raise ValueError(f"endpoint must look like host:port or http://host:port, got {value!r}")
    return host.strip("[]"), port


class _Connection:
    """One thread's keep-alive socket, opened on first use and after each close."""

    def __init__(self, address: tuple[str, int], head: bytes, timeout: float):
        self.address = address
        self.head = head  # the request head up to the Content-Length value
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self._rfile: IO[bytes] | None = None

    def _connect(self) -> None:
        try:
            sock = socket.create_connection(self.address, self.timeout)
        except OSError as exc:
            raise AnnotatorUnreachable(f"cannot reach {self.address[0]}:{self.address[1]}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self._rfile = sock, sock.makefile("rb")

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Send one POST /annotate in one write and read its reply's status and body.

        Any failure closes the socket, so a reply arriving late is never
        read as the next one.
        """
        if self.sock is None:
            self._connect()
        try:
            self.sock.sendall(b"%s%d\r\n\r\n%s" % (self.head, len(body), body))
            return self._read_reply()
        except BaseException:
            self.close()
            raise

    def _read_reply(self) -> tuple[int, bytes]:
        line = self._rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("the service closed the connection without a reply")
        version, _, rest = line.partition(b" ")
        if not (version.startswith(b"HTTP/1.") and rest[:3].isdigit()):
            raise ConnectionError(f"the reply began {line[:100]!r}, not an HTTP/1.x status line")
        try:
            headers = read_headers(self._rfile)
        except ValueError as exc:
            raise ProtocolViolation(f"reply has {exc}") from exc
        if headers is None:
            raise ConnectionError("the connection ended inside the reply's headers")
        length_text = headers.get(b"content-length", b"")
        if not (length_text.isdigit() and len(length_text) <= _MAX_LENGTH_DIGITS):
            raise ProtocolViolation(f"reply needs a Content-Length of digits, got {length_text[:30].decode('latin-1')!r}")
        length, received, chunks = int(length_text), 0, []
        while received < length:  # bounded reads: a read allocates its whole size before any byte arrives
            chunk = self._rfile.read(min(length - received, _READ_CHUNK_BYTES))
            if not chunk:
                raise ConnectionError(f"the connection ended after {received} of {length} body bytes")
            chunks.append(chunk)
            received += len(chunk)
        if headers.get(b"connection", b"").lower() == b"close":
            self.close()
        return int(rest[:3]), b"".join(chunks)

    def close(self) -> None:
        """Close the socket; the next post reconnects."""
        sock, rfile = self.sock, self._rfile
        self.sock = self._rfile = None
        if sock is not None:
            rfile.close()  # the socket closes once its file is closed too
            sock.close()


class HttpAnnotator:
    """Speaks the wire protocol against a running annotate service.

    ``endpoint`` is read by parse_endpoint, so a malformed one raises
    ValueError. Each thread that calls ``annotate`` keeps its own
    persistent connection; ``close`` closes them all.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self._address = parse_endpoint(endpoint)
        self._head = (
            f"POST /annotate HTTP/1.1\r\nHost: {self.endpoint.removeprefix('http://')}\r\n"
            "Content-Type: application/json; charset=utf-8\r\nContent-Length: "
        ).encode("ascii")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[_Connection] = []

    def _connection(self) -> _Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _Connection(self._address, self._head, self.timeout)
            with self._lock:
                self._connections.append(connection)
        return connection

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """One POST /annotate and its reply's status and body.

        A failed connect raises AnnotatorUnreachable. A lost connection is
        re-sent once; any other failure raises ProtocolViolation.
        """
        connection = self._connection()
        try:
            try:
                return connection.post(body)
            except ConnectionError:  # the re-sent request reconnects
                return connection.post(body)
        except OSError as exc:
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
