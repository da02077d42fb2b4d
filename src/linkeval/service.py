"""Annotate-over-HTTP service and the JSON wire codec.

The wire protocol is deliberately tiny. A request is a JSON object with a
required "text" field and an optional "doc_id"; a response carries an
"annotations" array whose items each have integer "begin" and "end"
character offsets and a string "entity". Offsets count Unicode scalar
values of the request text.

POST /annotate runs the adapter chain (split into segments, link each
segment, merge back) and returns annotations for the whole input. GET
/health reports the service and linker identity.

The service parses HTTP/1.1 itself, on one thread: a selectors loop owns
every accepted connection, on non-blocking sockets, so concurrent clients
cost no hand-over of the interpreter lock between threads and
``run --parallel`` above 1 scales against the service. The loop parses
each connection's input as it arrives, never searching a byte twice: the
request line, header lines up to the blank line and then exactly
Content-Length body bytes. It answers a connection's requests in order,
parses it no further while a reply is unsent, and sends each reply's
status line, headers and body in one write. A request body must be
framed by a Content-Length of at most MAX_BODY_BYTES: a missing header
gets 411, a malformed or negative one 400 and a larger one 413, each
closing the connection unread, as does the 404 for a POST to any other
path. A request with Transfer-Encoding gets 501 and closes before any
body is read, and a GET that carries a Content-Length closes after its
reply, so no unread body is parsed as the next request. A request line
over MAX_LINE_BYTES gets 414, a header line over MAX_LINE_BYTES or more
than MAX_HEADERS of them 431, an HTTP version other than 1.0 or 1.1 505
and any method but GET and POST 501, each closing the connection too.
A linker failure gets a 500 that names the exception class, not its
message; the traceback goes to the server's stderr, as does any other
fault, which closes only its own connection. A connection that receives
and sends nothing for REQUEST_TIMEOUT_S seconds is closed, checked every
half second. A client that hangs up or stalls is not logged as a server
error. stop() ends the keep-alive connections still open, so a stopped
service answers no further request.

A standby thread wakes every SLOW_REQUEST_S seconds. Once the loop's
thread has been annotating one request for that long, the standby takes
the loop over, leaving that connection out of it until the slow thread
hands its reply back and stands by in turn. So a slow document delays
only its own connection.

Connections are persistent (HTTP/1.1 keep-alive) and pipelined requests
are answered in order. A request with ``Connection: close``, or an
HTTP/1.0 one without ``Connection: keep-alive``, closes after its reply.
``Expect: 100-continue`` gets an interim ``100 Continue``, queued before
the body is read. TCP_NODELAY is set on each connection, so a reply is
never held back by Nagle's algorithm waiting for the client's delayed ACK.
"""

from __future__ import annotations

import contextlib
import json
import selectors
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from http import HTTPStatus
from typing import IO, Callable, Generator, Sequence

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
SLOW_REQUEST_S = 0.05  # how long one request may hold the loop before the standby takes it
_POLL_S = 0.5  # the longest select, so an interrupt lands and idle connections are checked
_RECV_BYTES = 1 << 16  # below glibc's mmap threshold: a larger recv buffer is mapped afresh on every call


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


def _add_header(headers: dict[bytes, bytes], line: bytes) -> bool:
    """Add one header line to headers; return whether it is the blank line that ends the block.

    The first of a repeated header wins. Raises ValueError for a line over MAX_LINE_BYTES.
    """
    if line in (b"\r\n", b"\n"):
        return True
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"a header line over {MAX_LINE_BYTES} bytes")
    name, _, value = line.partition(b":")
    headers.setdefault(name.strip().lower(), value.strip())
    return False


_TOO_MANY_HEADERS = f"more than {MAX_HEADERS} header lines"


def read_headers(rfile: IO[bytes]) -> dict[bytes, bytes] | None:
    """Read header lines up to the blank line; lowercased names map to stripped values.

    The first of a repeated header wins. Returns None when the stream ends
    first, and raises ValueError for a line over MAX_LINE_BYTES or more
    than MAX_HEADERS lines, the limits of http.server and http.client.
    """
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        if _add_header(headers, line):
            return headers
    raise ValueError(_TOO_MANY_HEADERS)


class _Connection:
    """One accepted socket on the loop: its unparsed input, its unsent replies and its request parser.

    ``line`` and ``read`` are the parser's reads. Each returns None until
    its bytes are in and no reply is left unsent, so a connection is parsed
    no further while its reply waits; then it returns what the same call
    on a blocking ``rfile`` would.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()  # from the first byte not yet parsed
        self.scanned = 0  # inbuf[:scanned] holds no newline, so no byte is searched twice
        self.outbuf = bytearray()
        self.eof = False
        self.events = 0  # what the selector watches this socket for
        self.active = time.monotonic()  # when a byte was last received or sent
        self.parser: Generator[tuple[bytes, bool] | None, None, None] | None = None

    def _take(self, size: int) -> bytes:
        data = bytes(self.inbuf[:size])
        del self.inbuf[:size]
        self.scanned = 0
        return data

    def line(self) -> bytes | None:
        """``readline(MAX_LINE_BYTES + 1)``: through the next newline, at most that many bytes, b"" at the end."""
        if self.outbuf:
            return None
        end = self.inbuf.find(b"\n", self.scanned, MAX_LINE_BYTES + 1)
        if end >= 0 or len(self.inbuf) > MAX_LINE_BYTES or self.eof:
            return self._take(end + 1 if end >= 0 else MAX_LINE_BYTES + 1)
        self.scanned = len(self.inbuf)
        return None

    def read(self, size: int) -> bytes | None:
        """``read(size)``: size bytes, fewer only at the end of the stream."""
        if self.outbuf or (len(self.inbuf) < size and not self.eof):
            return None
        return self._take(size)

    def headers(self) -> Generator[None, None, dict[bytes, bytes] | None]:
        """read_headers on this connection's input, yielding while it waits."""
        headers: dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            while (line := self.line()) is None:
                yield
            if not line:
                return None
            if _add_header(headers, line):
                return headers
        raise ValueError(_TOO_MANY_HEADERS)


class AnnotatorService:
    """The annotate service: one listening socket and the loop that serves every connection on it."""

    def __init__(self, pipeline: AnnotationPipeline, address: tuple[str, int]):
        self.pipeline = pipeline
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            self.socket.listen()
        except OSError as exc:
            self.socket.close()
            raise BindFailure(f"cannot bind {address[0]}:{address[1]}: {exc}") from exc
        self.server_address = self.socket.getsockname()
        self.socket.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()  # a thread that lost the loop wakes its select
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._swept = time.monotonic()
        self._stopping = threading.Event()
        self._lock = threading.Condition()  # guards the four fields below; notified when the loop is left
        self._leader: int | None = None  # the thread that runs the loop
        self._busy: tuple[float, _Connection] | None = None  # since when the leader annotates, and for whom
        self._returned: list[_Connection] = []  # replies finished by a thread after it lost the loop
        self._closed = False

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the loop in this thread until shutdown() or an interrupt, with a standby thread beside it."""
        self._leader = threading.get_ident()
        threading.Thread(target=self._take_turns, name="linkeval-standby", daemon=True).start()
        try:
            self._take_turns()
        finally:
            self.shutdown()

    def _take_turns(self) -> None:
        """Run the loop, or stand by to take it over from a thread stuck in one request."""
        me = threading.get_ident()
        while not self._stopping.is_set():
            if self._leader == me:
                self._poll(me)
            elif not self._stopping.wait(SLOW_REQUEST_S):
                with self._lock:
                    busy = self._busy
                    if busy is None or self._stopping.is_set() or time.monotonic() - busy[0] < SLOW_REQUEST_S:
                        continue
                    self._busy, self._leader = None, me
                self._watch(busy[1], 0)  # until its reply comes back
        with self._lock:
            if self._leader == me:
                self._leader = None
                self._lock.notify_all()

    def _poll(self, me: int) -> None:
        """Close the connections idle for REQUEST_TIMEOUT_S, then serve what one select finds."""
        now = time.monotonic()
        if now - self._swept >= _POLL_S:
            self._swept = now
            for key in list(self._selector.get_map().values()):
                if key.data is not None and now - key.data.active > REQUEST_TIMEOUT_S:
                    self._close(key.data)
        for key, events in self._selector.select(_POLL_S):
            if key.data is not None:
                self._serve(key.data, events)
            elif key.fileobj is self.socket:
                self._accept()
            else:
                with contextlib.suppress(BlockingIOError):
                    self._wake_r.recv(4096)
            if self._leader != me:
                return
        while self._returned and self._leader == me:
            with self._lock:
                conn = self._returned.pop()
            self._serve(conn, 0)

    def _accept(self) -> None:
        try:
            request, client_address = self.socket.accept()
        except OSError:  # the client gave up first, or no descriptor is left
            return
        try:
            self.process_request(request, client_address)
        except OSError:  # the client reset it already
            request.close()

    def process_request(self, request: socket.socket, client_address: tuple) -> None:
        """Hand one accepted connection to the loop."""
        request.setblocking(False)
        request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see the module docstring
        conn = _Connection(request)
        conn.parser = self._requests(conn)
        self._watch(conn, selectors.EVENT_READ)

    def _watch(self, conn: _Connection, events: int) -> None:
        """Have the selector watch conn for events; 0 takes it out of the selector."""
        if events != conn.events:
            if conn.events:
                self._selector.unregister(conn.sock)
            if events:
                self._selector.register(conn.sock, events, conn)
            conn.events = events

    def _close(self, conn: _Connection) -> None:
        self._watch(conn, 0)
        with contextlib.suppress(OSError):  # the peer may be gone already
            conn.sock.shutdown(socket.SHUT_WR)
        conn.sock.close()

    def _serve(self, conn: _Connection, events: int) -> None:
        """Take what conn's client sent, then send replies and parse on.

        Returns once conn waits for its client or another thread took the
        loop. A failure closes this connection only.
        """
        try:
            if events & selectors.EVENT_READ:
                data = conn.sock.recv(_RECV_BYTES)
                conn.inbuf += data
                conn.eof = not data
                conn.active = time.monotonic()
            while True:
                if conn.outbuf:
                    with contextlib.suppress(BlockingIOError):
                        del conn.outbuf[: conn.sock.send(conn.outbuf)]
                        conn.active = time.monotonic()
                    if conn.outbuf:
                        return self._watch(conn, selectors.EVENT_WRITE)
                if conn.parser is None:
                    return self._close(conn)
                try:
                    step = next(conn.parser)
                except StopIteration:
                    conn.parser = None
                    continue
                if step is None:
                    if not conn.outbuf:
                        return self._watch(conn, selectors.EVENT_READ)
                elif not self._annotate(conn, *step):
                    return
        except ConnectionError:  # a client that hung up is not a server fault
            self._close(conn)
        except Exception:
            traceback.print_exc()
            self._close(conn)

    def _requests(self, conn: _Connection) -> Generator[tuple[bytes, bool] | None, None, None]:
        """conn's requests, parsed under the rules of the module docstring, until one closes the connection.

        Yields None while it waits for input or for a reply to be sent, and
        (body, close) for the loop to annotate and answer.
        """
        while True:
            while (line := conn.line()) is None:
                yield
            if not line:
                return
            if len(line) > MAX_LINE_BYTES:
                return self._reject(conn, 414, "uri_too_long", f"request line over {MAX_LINE_BYTES} bytes")
            words = line.split()
            if len(words) != 3:
                return self._reject(conn, 400, "malformed_request", f"bad request line {line[:100].decode('latin-1')!r}")
            method, path, version = words
            if version not in (b"HTTP/1.1", b"HTTP/1.0"):
                detail = f"{version[:20].decode('latin-1')!r} is not HTTP/1.0 or HTTP/1.1"
                return self._reject(conn, 505, "version_not_supported", detail)
            try:
                headers = yield from conn.headers()
            except ValueError as exc:
                return self._reject(conn, 431, "headers_too_large", str(exc))
            if headers is None:
                return
            if b"transfer-encoding" in headers:  # a body framed other than by Content-Length
                return self._reject(conn, 501, "not_implemented", "Transfer-Encoding is not supported")
            connection = headers.get(b"connection", b"").lower()
            close = connection == b"close" or (version == b"HTTP/1.0" and connection != b"keep-alive")
            if method == b"GET":
                close = close or b"content-length" in headers  # its body is left unread
                if path != b"/health":
                    self._reply_json(conn, 404, {"error": "not_found"}, close)
                else:
                    self._reply_json(conn, 200, {"service": "linkeval-annotator", "linker": self.pipeline.name}, close)
            elif method != b"POST":
                return self._reject(conn, 501, "not_implemented", f"method {method[:20].decode('latin-1')!r} is not supported")
            elif path != b"/annotate":
                # the body is left unread, so it must not be parsed as a request
                return self._reply_json(conn, 404, {"error": "not_found"}, close=True)
            else:
                length = self._body_length(conn, headers.get(b"content-length"))
                if length is None:
                    return
                if headers.get(b"expect", b"").lower() == b"100-continue" and version == b"HTTP/1.1":
                    conn.outbuf += b"HTTP/1.1 100 Continue\r\n\r\n"
                while (body := conn.read(length)) is None:
                    yield
                if len(body) < length:
                    return  # the client hung up mid-body
                yield body, close
            if close:
                return

    def _reply(self, conn: _Connection, status: int, payload: bytes, close: bool = False) -> None:
        """Queue one reply, sent in one write."""
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(payload)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        conn.outbuf += head.encode("ascii") + payload

    def _reply_json(self, conn: _Connection, status: int, obj: dict, close: bool = False) -> None:
        self._reply(conn, status, json.dumps(obj, ensure_ascii=False).encode("utf-8"), close)

    def _reject(self, conn: _Connection, status: int, error: str, detail: str) -> None:
        """A framing error: the rest of the request is left unread, so the connection closes."""
        self._reply_json(conn, status, {"error": error, "detail": detail}, close=True)

    def _body_length(self, conn: _Connection, header: bytes | None) -> int | None:
        """The request's Content-Length, or None after rejecting it."""
        if header is None:
            self._reject(conn, 411, "length_required", "a POST body needs a Content-Length")
        elif not header.isdigit():
            detail = f"Content-Length must be a non-negative integer, got {header.decode('latin-1')!r}"
            self._reject(conn, 400, "malformed_request", detail)
        elif len(header) > len(str(MAX_BODY_BYTES)) or int(header) > MAX_BODY_BYTES:  # int() refuses 4300+ digits
            detail = f"Content-Length {header[:30].decode('ascii')} exceeds the limit of {MAX_BODY_BYTES}"
            self._reject(conn, 413, "body_too_large", detail)
        else:
            return int(header)
        return None

    def _annotate(self, conn: _Connection, body: bytes, close: bool) -> bool:
        """Queue the reply to one POST /annotate; False when another thread took the loop meanwhile."""
        try:
            request = decode_request(body)
        except MalformedRequest as exc:
            self._reply_json(conn, 400, {"error": "malformed_request", "detail": str(exc)}, close)
            return True
        me = threading.get_ident()
        with self._lock:
            self._busy = (time.monotonic(), conn)
        try:
            self._reply(conn, 200, encode_response(self.pipeline.annotate_triples(request.text)), close)
        except Exception as exc:  # surface linker failures as a server error, without their message
            traceback.print_exc()  # the message and traceback stay on the server's stderr
            self._reply_json(conn, 500, {"error": "annotator_failure", "detail": type(exc).__name__}, close)
        except BaseException:  # an interrupt: the request stays unanswered, so its connection closes
            conn.parser = None
            raise
        finally:
            with self._lock:
                led = self._leader == me
                if led:
                    self._busy = None
                elif self._closed:  # the service was closed while this request ran
                    conn.sock.close()
                else:
                    self._returned.append(conn)
                    self._wake()
        return led

    def _wake(self) -> None:
        """End the loop's select at once."""
        with contextlib.suppress(OSError):  # a wake-up is pending already, or the service is closed
            self._wake_w.send(b"\0")

    def start_background(self) -> None:
        threading.Thread(target=self.serve_forever, name="linkeval-service", daemon=True).start()

    def shutdown(self) -> None:
        """Stop the loop and wait until no thread runs it; a thread inside annotate loses it at once."""
        self._stopping.set()
        self._wake()
        me = threading.get_ident()
        with self._lock:
            while self._leader not in (None, me) and self._busy is None:
                self._lock.wait(SLOW_REQUEST_S)
            self._leader = None

    def server_close(self) -> None:
        """Close the listening socket and every connection; a reply still being annotated closes its own."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.socket.close()
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                self._close(key.data)
        for conn in self._returned:
            self._close(conn)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


def serve(pipeline: AnnotationPipeline, host: str = "127.0.0.1", port: int = 0) -> AnnotatorService:
    """Bind the service; port 0 picks a free port. The caller starts it."""
    return AnnotatorService(pipeline, (host, port))
