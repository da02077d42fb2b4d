"""Annotate-over-HTTP service and the JSON wire codec.

The wire protocol is deliberately tiny. A request is a JSON object with a
required "text" field and an optional "doc_id"; a response carries an
"annotations" array whose items each have integer "begin" and "end"
character offsets and a string "entity". Offsets count Unicode scalar
values of the request text.

POST /annotate runs the adapter chain (split into segments, link each
segment, merge back) and returns annotations for the whole input. GET
/health reports the service and linker identity.

The service parses HTTP/1.1 itself, one thread per connection: it reads
the request line, header lines up to the blank line and then exactly
Content-Length body bytes, and sends each reply's status line, headers
and body in one write. A request body must be framed by a Content-Length
of at most MAX_BODY_BYTES: a missing header gets 411, a malformed or
negative one 400 and a larger one 413, each closing the connection
unread, as does the 404 for a POST to any other path. A request with
Transfer-Encoding gets 501 and closes before any body is read, and a GET
that carries a Content-Length closes after its reply, so no unread body
is parsed as the next request. A request line over MAX_LINE_BYTES gets
414, a header line over MAX_LINE_BYTES or more than MAX_HEADERS of them
431, an HTTP version other than 1.0 or 1.1 505 and any method but GET
and POST 501, each closing the connection too.
A linker failure gets a 500 that names the exception class, not its
message; the traceback goes to the server's stderr. A client that stalls
mid-request for REQUEST_TIMEOUT_S seconds has its connection closed, so
no handler thread waits on it for longer. A client that hangs up before
its reply is written is not logged as a server error. stop() ends the
keep-alive connections still open, so a stopped service answers no
further request.

Connections are persistent (HTTP/1.1 keep-alive) and pipelined requests
are answered in order. A request with ``Connection: close``, or an
HTTP/1.0 one without ``Connection: keep-alive``, closes after its reply.
``Expect: 100-continue`` gets an interim ``100 Continue`` before the body
is read. TCP_NODELAY is set on each connection, so a reply is never held
back by Nagle's algorithm waiting for the client's delayed ACK.
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import sys
import threading
import traceback
from dataclasses import dataclass
from http import HTTPStatus
from typing import IO, Callable, Sequence

from .adapters import merge_segment_annotations, split_document
from .errors import BindFailure, MalformedRequest, ProtocolViolation
from .model import Annotation, make_entity
from .model import Span as _Span

LinkerFn = Callable[[str], list[Annotation]]

RawTriple = tuple[int, int, str]

MAX_BODY_BYTES = 16 * 1024 * 1024
REQUEST_TIMEOUT_S = 30.0
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


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


def read_headers(rfile: IO[bytes]) -> dict[bytes, bytes] | None:
    """Read header lines up to the blank line; lowercased names map to stripped values.

    The first of a repeated header wins. Returns None when the stream ends
    first, and raises ValueError for a line over MAX_LINE_BYTES or more
    than MAX_HEADERS lines, the limits of http.server and http.client.
    """
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            return None
        if len(line) > MAX_LINE_BYTES:
            raise ValueError(f"a header line over {MAX_LINE_BYTES} bytes")
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise ValueError(f"more than {MAX_HEADERS} header lines")


class _AnnotateHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # see the module docstring
    timeout = REQUEST_TIMEOUT_S  # per socket operation; a stalled read closes the connection
    server: "AnnotatorService"

    def handle(self) -> None:
        while self._handle_request():
            pass

    def _reply(self, status: int, payload: bytes, close: bool = False) -> bool:
        """Send one reply in one write; return whether the connection stays open."""
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(payload)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        self.wfile.write(head.encode("ascii") + payload)
        return not close

    def _reply_json(self, status: int, obj: dict, close: bool = False) -> bool:
        return self._reply(status, json.dumps(obj, ensure_ascii=False).encode("utf-8"), close)

    def _reject(self, status: int, error: str, detail: str) -> bool:
        """A framing error: the rest of the request is left unread, so the connection closes."""
        return self._reply_json(status, {"error": error, "detail": detail}, close=True)

    def _handle_request(self) -> bool:
        """Read one request and reply to it; return whether the connection stays open."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return False
        if len(line) > MAX_LINE_BYTES:
            return self._reject(414, "uri_too_long", f"request line over {MAX_LINE_BYTES} bytes")
        words = line.split()
        if len(words) != 3:
            return self._reject(400, "malformed_request", f"bad request line {line[:100].decode('latin-1')!r}")
        method, path, version = words
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            detail = f"{version[:20].decode('latin-1')!r} is not HTTP/1.0 or HTTP/1.1"
            return self._reject(505, "version_not_supported", detail)
        try:
            headers = read_headers(self.rfile)
        except ValueError as exc:
            return self._reject(431, "headers_too_large", str(exc))
        if headers is None:
            return False
        if b"transfer-encoding" in headers:  # a body framed other than by Content-Length
            return self._reject(501, "not_implemented", "Transfer-Encoding is not supported")
        connection = headers.get(b"connection", b"").lower()
        close = connection == b"close" or (version == b"HTTP/1.0" and connection != b"keep-alive")
        if method == b"GET":
            close = close or b"content-length" in headers  # its body is left unread
            if path != b"/health":
                return self._reply_json(404, {"error": "not_found"}, close)
            return self._reply_json(200, {"service": "linkeval-annotator", "linker": self.server.pipeline.name}, close)
        if method != b"POST":
            return self._reject(501, "not_implemented", f"method {method[:20].decode('latin-1')!r} is not supported")
        if path != b"/annotate":
            # the body is left unread, so it must not be parsed as a request
            return self._reply_json(404, {"error": "not_found"}, close=True)
        length = self._body_length(headers.get(b"content-length"))
        if length is None:
            return False
        if headers.get(b"expect", b"").lower() == b"100-continue" and version == b"HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            return False  # the client hung up mid-body
        return self._annotate(body, close)

    def _body_length(self, header: bytes | None) -> int | None:
        """The request's Content-Length, or None after rejecting it."""
        if header is None:
            self._reject(411, "length_required", "a POST body needs a Content-Length")
        elif not header.isdigit():
            detail = f"Content-Length must be a non-negative integer, got {header.decode('latin-1')!r}"
            self._reject(400, "malformed_request", detail)
        elif len(header) > len(str(MAX_BODY_BYTES)) or int(header) > MAX_BODY_BYTES:  # int() refuses 4300+ digits
            detail = f"Content-Length {header[:30].decode('ascii')} exceeds the limit of {MAX_BODY_BYTES}"
            self._reject(413, "body_too_large", detail)
        else:
            return int(header)
        return None

    def _annotate(self, body: bytes, close: bool) -> bool:
        try:
            request = decode_request(body)
        except MalformedRequest as exc:
            return self._reply_json(400, {"error": "malformed_request", "detail": str(exc)}, close)
        try:
            triples = self.server.pipeline.annotate_triples(request.text)
        except Exception as exc:  # surface linker failures as a server error, without their message
            traceback.print_exc()  # the message and traceback stay on the server's stderr
            return self._reply_json(500, {"error": "annotator_failure", "detail": type(exc).__name__}, close)
        return self._reply(200, encode_response(triples), close)


class AnnotatorService(socketserver.ThreadingTCPServer):
    """HTTP server wrapper owning the annotation pipeline."""

    allow_reuse_address = True
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
        # a client that stalled, hung up or stopped waiting for its reply is not a server fault
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
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
