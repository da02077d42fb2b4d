"""Annotate-over-HTTP service and the JSON wire codec.

The wire protocol is deliberately tiny. A request is a JSON object with a
required "text" field and an optional "doc_id"; a response carries an
"annotations" array whose items each have integer "begin" and "end"
character offsets and a string "entity". Offsets count Unicode scalar
values of the request text.

POST /annotate runs the adapter chain (split into segments, link each
segment, merge back) and returns annotations for the whole input. GET
/health reports the service and linker identity.

A request body must be framed by a Content-Length of at most
MAX_BODY_BYTES: a missing header gets 411, a malformed or negative one
400 and a larger one 413, each closing the connection unread, as does
the 404 for a POST to any other path. A linker failure gets a 500 that
names the exception class, not its message; the traceback goes to the
server's stderr. A client that stalls mid-request for REQUEST_TIMEOUT_S
seconds has its connection closed, so no handler thread waits on it for
longer. A client that hangs up before its reply is written is not logged
as a server error. stop() ends the keep-alive connections still open, so
a stopped service answers no further request.

Connections are persistent (HTTP/1.1 keep-alive) and TCP_NODELAY is set on
each, because the reply's headers and body go out in two writes and
Nagle's algorithm would hold the second back for the client's delayed ACK.
"""

from __future__ import annotations

import contextlib
import json
import socket
import sys
import threading
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence

from .adapters import merge_segment_annotations, split_document
from .errors import BindFailure, MalformedRequest, ProtocolViolation
from .model import Annotation, make_entity
from .model import Span as _Span

LinkerFn = Callable[[str], list[Annotation]]

RawTriple = tuple[int, int, str]

MAX_BODY_BYTES = 16 * 1024 * 1024
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class AnnotateRequest:
    text: str
    doc_id: str | None = None


def encode_request(request: AnnotateRequest) -> bytes:
    payload: dict = {"text": request.text}
    if request.doc_id is not None:
        payload["doc_id"] = request.doc_id
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def decode_request(body: bytes) -> AnnotateRequest:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedRequest(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "text" not in payload:
        raise MalformedRequest('body must be an object with a "text" field')
    text = payload["text"]
    if not isinstance(text, str):
        raise MalformedRequest('"text" must be a string')
    doc_id = payload.get("doc_id")
    if doc_id is not None and not isinstance(doc_id, str):
        raise MalformedRequest('"doc_id" must be a string when present')
    return AnnotateRequest(text=text, doc_id=doc_id)


def encode_response(triples: Sequence[RawTriple]) -> bytes:
    payload = {"annotations": [{"begin": begin, "end": end, "entity": entity} for begin, end, entity in triples]}
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def decode_response(body: bytes) -> list[RawTriple]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolViolation(f"response is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("annotations"), list):
        raise ProtocolViolation('response must be an object with an "annotations" array')
    triples: list[RawTriple] = []
    for item in payload["annotations"]:
        if not isinstance(item, dict):
            raise ProtocolViolation("annotation items must be objects")
        begin, end, entity = item.get("begin"), item.get("end"), item.get("entity")
        if not isinstance(begin, int) or isinstance(begin, bool):
            raise ProtocolViolation('"begin" must be an integer')
        if not isinstance(end, int) or isinstance(end, bool):
            raise ProtocolViolation('"end" must be an integer')
        if not isinstance(entity, str) or not entity:
            raise ProtocolViolation('"entity" must be a non-empty string')
        triples.append((begin, end, entity))
    return triples


def validate_triples(triples: Sequence[RawTriple], text: str) -> list[Annotation]:
    """Check offsets against the text and build annotation values."""
    annotations: list[Annotation] = []
    for begin, end, entity in triples:
        if begin < 0 or begin >= end or end > len(text):
            raise ProtocolViolation(f"span ({begin}, {end}) invalid for text of length {len(text)}")
        try:
            annotations.append(Annotation(_Span(begin, end), make_entity(entity)))
        except ValueError as exc:
            raise ProtocolViolation(str(exc)) from exc
    return annotations


class AnnotationPipeline:
    """The adapter chain every annotator run goes through.

    Long inputs are split into segments of at most max_tokens tokens, the
    linker runs on each segment's text, and segment-local annotations are
    shifted back into document coordinates.

    A linker given with ``takes_tokens`` is called as
    ``linker(text, tokens=segment.tokens)``, so it walks the segment's
    slice of the document's tokens; the built-in linkers take that
    keyword. Any other linker gets the text alone.
    """

    def __init__(self, linker: LinkerFn, max_tokens: int = 512, name: str = "linker", *, takes_tokens: bool = False):
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        self.linker = linker
        self.max_tokens = max_tokens
        self.name = name
        self.takes_tokens = takes_tokens

    def annotate(self, text: str) -> list[Annotation]:
        segments = split_document(text, self.max_tokens)
        if self.takes_tokens:
            per_segment = [self.linker(segment.text, tokens=segment.tokens) for segment in segments]
        else:
            per_segment = [self.linker(segment.text) for segment in segments]
        return merge_segment_annotations(segments, per_segment)

    def annotate_triples(self, text: str) -> list[RawTriple]:
        return [(a.span.begin, a.span.end, a.entity.id) for a in self.annotate(text)]


class _AnnotateHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # see the module docstring
    timeout = REQUEST_TIMEOUT_S  # per socket operation; a stalled read closes the connection
    server: "AnnotatorService"

    def _reply(self, status: int, payload: bytes, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, status: int, obj: dict, close: bool = False) -> None:
        self._reply(status, json.dumps(obj, ensure_ascii=False).encode("utf-8"), close)

    def _body_length(self) -> int | None:
        """The request's Content-Length, or None after rejecting it.

        A rejected body is left unread, so the reply closes the connection.
        """
        header = self.headers.get("Content-Length")
        if header is None:
            self._reply_json(411, {"error": "length_required"}, close=True)
            return None
        header = header.strip()
        if not (header.isascii() and header.isdigit()):
            detail = f"Content-Length must be a non-negative integer, got {header!r}"
            self._reply_json(400, {"error": "malformed_request", "detail": detail}, close=True)
            return None
        length = int(header)
        if length > MAX_BODY_BYTES:
            detail = f"body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}"
            self._reply_json(413, {"error": "body_too_large", "detail": detail}, close=True)
            return None
        return length

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/health":
            self._reply_json(404, {"error": "not_found"})
            return
        self._reply_json(200, {"service": "linkeval-annotator", "linker": self.server.pipeline.name})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/annotate":
            # the body is left unread, so it must not be parsed as a request
            self._reply_json(404, {"error": "not_found"}, close=True)
            return
        length = self._body_length()
        if length is None:
            return
        try:
            request = decode_request(self.rfile.read(length))
        except MalformedRequest as exc:
            self._reply_json(400, {"error": "malformed_request", "detail": str(exc)})
            return
        try:
            triples = self.server.pipeline.annotate_triples(request.text)
        except Exception as exc:  # surface linker failures as a server error, without their message
            traceback.print_exc()  # the message and traceback stay on the server's stderr
            self._reply_json(500, {"error": "annotator_failure", "detail": type(exc).__name__})
            return
        self._reply(200, encode_response(triples))

    def log_message(self, format: str, *args) -> None:  # silence per-request logging
        pass


class AnnotatorService(ThreadingHTTPServer):
    """HTTP server wrapper owning the annotation pipeline."""

    daemon_threads = True

    def __init__(self, pipeline: AnnotationPipeline, address: tuple[str, int]):
        self.pipeline = pipeline
        try:
            super().__init__(address, _AnnotateHandler)
        except OSError as exc:
            raise BindFailure(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc
        self._thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()  # accepted and not yet closed
        self._connections_lock = threading.Lock()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def handle_error(self, request, client_address) -> None:
        # a client that stopped waiting for its reply (a read timeout, a reset) is not a server fault
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def get_request(self) -> tuple[socket.socket, tuple]:
        request, client_address = super().get_request()
        with self._connections_lock:
            self._connections.add(request)
        return request, client_address

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, name="linkeval-service", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()
        # each handler of a kept-alive connection then reads end-of-stream and closes its socket
        with self._connections_lock:
            for connection in self._connections:
                with contextlib.suppress(OSError):  # the peer may be gone already
                    connection.shutdown(socket.SHUT_RDWR)


def serve(pipeline: AnnotationPipeline, host: str = "127.0.0.1", port: int = 0) -> AnnotatorService:
    """Bind the service; port 0 picks a free port. The caller starts it."""
    return AnnotatorService(pipeline, (host, port))
