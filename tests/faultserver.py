"""A stdlib annotate server that misbehaves on request, for client tests.

``FaultServer(pipeline, script)`` answers ``POST /annotate`` like the real
service, except that each request whose ``doc_id`` has faults left in
``script`` gets the next one of them instead:

- ``close``: a correct reply, then the keep-alive socket is closed without
  ``Connection: close``, so the client's next request meets a dead socket;
- ``drop``: the request is read and the socket closed with no reply;
- ``reset``: the headers and half the body, then a TCP reset;
- ``truncate``: the headers and half the body, then an orderly close;
- ``garbage``: HTTP 200 with a body that is not JSON;
- ``http500``: HTTP 500 with a JSON error body;
- ``short_length``: a ``Content-Length`` of half the body, all of it sent;
- ``long_length``: a ``Content-Length`` beyond the body, the socket kept
  open, so the client waits for bytes that never come;
- ``segments``: a correct reply whose status line, headers and body go
  out in three writes 50 ms apart;
- ``announce_close``: a correct reply with ``Connection: close``, the
  socket kept open, so only a client that honours the header reconnects;
- ``no_length``: a correct reply without ``Content-Length``, the socket
  kept open;
- ``huge_length``: a ``Content-Length`` of about a petabyte, the socket
  kept open.

``connections`` counts the TCP connections accepted. Use it as a context
manager: it serves on a background thread and is always shut down.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from linkeval.service import AnnotationPipeline, decode_request, encode_response

FAULTS = (
    "close", "drop", "reset", "truncate", "garbage", "http500", "short_length", "long_length",
    "segments", "announce_close", "no_length", "huge_length",
)


class _FaultHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5.0  # no handler thread outlives a test by more than this
    server: "FaultServer"

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        request = decode_request(self.rfile.read(int(self.headers["Content-Length"])))
        fault = self.server.next_fault(request.doc_id)
        body = encode_response(self.server.pipeline.annotate_triples(request.text))
        status, length = 200, len(body)
        if fault == "drop":
            self.close_connection = True
            return
        if fault == "garbage":
            body = b"<html>not json</html>"
            length = len(body)
        elif fault == "http500":
            status, body = 500, b'{"error": "annotator_failure"}'
            length = len(body)
        elif fault in ("reset", "truncate"):
            body = body[: len(body) // 2]
        elif fault == "short_length":
            length = len(body) // 2
        elif fault == "long_length":
            length = len(body) + 100
        elif fault == "huge_length":
            length = 10**15 - 1
        status_line = f"HTTP/1.1 {status} X\r\n".encode("ascii")
        headers = "Content-Type: application/json\r\n"
        if fault != "no_length":
            headers += f"Content-Length: {length}\r\n"
        if fault == "announce_close":
            headers += "Connection: close\r\n"
        parts = [status_line, headers.encode("ascii") + b"\r\n", body]
        if fault == "segments":
            for part in parts:
                self.wfile.write(part)
                time.sleep(0.05)
        else:
            self.wfile.write(b"".join(parts))
        if fault == "reset":
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.close_connection = fault in ("close", "reset", "truncate")

    def log_message(self, format: str, *args) -> None:
        pass


class FaultServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, pipeline: AnnotationPipeline, script: dict[str, list[str]]):
        unknown = {fault for faults in script.values() for fault in faults} - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown faults {sorted(unknown)}")
        self.pipeline = pipeline
        self.script = {doc_id: list(faults) for doc_id, faults in script.items()}
        self.connections = 0
        self._lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _FaultHandler)
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def next_fault(self, doc_id: str | None) -> str | None:
        with self._lock:
            faults = self.script.get(doc_id)
            return faults.pop(0) if faults else None

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        # no shutdown(SHUT_WR) first: that would send a FIN ahead of a reset
        self.close_request(request)

    def __enter__(self) -> "FaultServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self._thread.join(timeout=5)
        self.server_close()
