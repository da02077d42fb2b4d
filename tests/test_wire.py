"""The HTTP client over a keep-alive wire: connection reuse and per-document faults.

Every wait here is bounded by a socket timeout, so a client that hangs on a
misbehaving server fails its test instead of stalling the suite.
"""

from __future__ import annotations

import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from faultserver import FaultServer
from linkeval import (
    AnnotateRequest,
    AnnotationPipeline,
    HttpAnnotator,
    InProcessAnnotator,
    RunConfig,
    decode_response,
    encode_request,
    run_benchmark,
    serve,
)
from linkeval.errors import AnnotatorUnreachable, ProtocolViolation
from linkeval.reports import emit_report
from linkeval.service import SLOW_REQUEST_S, AnnotatorService, read_headers
from test_runner import fixture_pipeline, perfection_corpus


@pytest.fixture()
def live_service():
    service = serve(fixture_pipeline())
    service.start_background()
    try:
        yield service
    finally:
        service.stop()


@pytest.fixture()
def connection_count(monkeypatch) -> list[int]:
    """Connections the service accepts, counted where the benchmark's tracer counts them."""
    accepted = [0]
    process_request = AnnotatorService.process_request

    def counted(self, *args, **kwargs):
        accepted[0] += 1
        return process_request(self, *args, **kwargs)

    monkeypatch.setattr(AnnotatorService, "process_request", counted)
    return accepted


def in_process_report(config: RunConfig = RunConfig()):
    return run_benchmark(perfection_corpus(), InProcessAnnotator(fixture_pipeline()), config)


def http_report(endpoint: str, config: RunConfig = RunConfig(), timeout: float = 2.0):
    annotator = HttpAnnotator(endpoint, timeout=timeout)
    try:
        return run_benchmark(perfection_corpus(), annotator, config)
    finally:
        annotator.close()


def test_sequential_run_keeps_one_connection(live_service, connection_count) -> None:
    report = http_report(live_service.endpoint)
    assert connection_count[0] == 1
    assert report.without_runtime() == in_process_report().without_runtime()


def test_parallel_run_keeps_one_connection_per_thread(live_service, connection_count) -> None:
    config = RunConfig(parallel=2)
    report = http_report(live_service.endpoint, config)
    assert 1 <= connection_count[0] <= 2
    assert report.without_runtime() == in_process_report(config).without_runtime()


def test_close_closes_every_client_socket(live_service) -> None:
    annotator = HttpAnnotator(live_service.endpoint)
    run_benchmark(perfection_corpus(), annotator, RunConfig(parallel=2))
    sockets = [connection.sock for connection in annotator._connections]
    assert sockets and all(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for sock in sockets)
    annotator.close()
    assert all(sock.fileno() == -1 for sock in sockets)


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost",
        "http://localhost",
        "127.0.0.1:http",
        ":8400",
        "127.0.0.1:70000",
        "127.0.0.1:99999999999",
        pytest.param("127.0.0.1:" + "9" * 5000, id="127.0.0.1:<5000 nines>"),
        "http://127.0.0.1/x:1",
    ],
)
def test_endpoint_without_host_and_port_is_rejected_up_front(endpoint: str) -> None:
    with pytest.raises(ValueError, match="host:port"):
        HttpAnnotator(endpoint)


def test_keep_alive_requests_do_not_stall_on_delayed_ack(live_service) -> None:
    # with Nagle's algorithm on either end, each request waits ~40 ms for a delayed ACK
    annotator = HttpAnnotator(live_service.endpoint)
    try:
        started = time.perf_counter()
        for _ in range(40):
            annotator.annotate("Japan beat Syria")
        elapsed = time.perf_counter() - started
    finally:
        annotator.close()
    assert elapsed < 1.0


def test_stop_returns_while_a_keep_alive_client_idles() -> None:
    service = serve(fixture_pipeline())
    service.start_background()
    annotator = HttpAnnotator(service.endpoint)
    try:
        assert annotator.annotate("Japan") == [(0, 5, "JAPAN_NT")]
        started = time.perf_counter()
        service.stop()
        assert time.perf_counter() - started < 3.0
    finally:
        annotator.close()


def test_stopped_service_answers_no_kept_alive_connection() -> None:
    service = serve(fixture_pipeline())
    service.start_background()
    annotator = HttpAnnotator(service.endpoint, timeout=2.0)
    try:
        assert annotator.annotate("Japan") == [(0, 5, "JAPAN_NT")]
        service.stop()
        started = time.perf_counter()
        with pytest.raises((AnnotatorUnreachable, ProtocolViolation)):
            annotator.annotate("Japan")
        assert time.perf_counter() - started < 3.0
    finally:
        annotator.close()


def test_slow_document_fails_alone(tmp_path: Path, capfd) -> None:
    def sleepy(text: str):
        if text.startswith("Syria lost"):
            time.sleep(1.0)
        return fixture_pipeline().linker(text)

    service = serve(AnnotationPipeline(sleepy, name="sleepy"))
    service.start_background()
    try:
        report = http_report(service.endpoint, timeout=0.3)
    finally:
        service.stop()
    # the slow handler still writes its reply to the closed connection
    for thread in threading.enumerate():
        if "process_request_thread" in thread.name:
            thread.join(timeout=5)
    by_id = {d.doc_id: d for d in report.per_document}
    assert "TimeoutError" in by_id["p2"].protocol_error
    assert by_id["p2"].pred_count == 0
    assert [by_id[doc_id].protocol_error for doc_id in ("p1", "p3")] == [None, None]
    assert by_id["p1"].true_positives == 1 and by_id["p3"].true_positives == 2
    emit_report(report, tmp_path)
    assert "protocol_violation[p2]: " in (tmp_path / "summary.txt").read_text()
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize(
    ("script", "connections"),
    [
        ({"p2": ["drop"]}, 2),
        ({"p2": ["reset"]}, 2),
        ({"p2": ["truncate"]}, 2),
        # every reply closes its socket unannounced: p2 and p3 each meet a dead one
        ({"p1": ["close"], "p2": ["close"], "p3": ["close"]}, 3),
    ],
    ids=["drop", "reset", "truncate", "close"],
)
def test_a_single_lost_connection_is_resent(script: dict[str, list[str]], connections: int) -> None:
    with FaultServer(fixture_pipeline(), script) as server:
        report = http_report(server.endpoint)
    assert report.without_runtime() == in_process_report().without_runtime()
    assert all(faults == [] for faults in server.script.values())
    assert server.connections == connections


@pytest.mark.parametrize(
    ("fault", "connections"),
    # a client that ignored Connection: close would send p2 on the open socket, over 1 connection
    [("segments", 1), ("announce_close", 2)],
)
def test_a_well_framed_reply_is_read_whole(fault: str, connections: int) -> None:
    with FaultServer(fixture_pipeline(), {"p1": [fault]}) as server:
        report = http_report(server.endpoint)
    assert report.without_runtime() == in_process_report().without_runtime()
    assert server.script["p1"] == []
    assert server.connections == connections


@pytest.mark.parametrize(
    ("faults", "error"),
    [
        (["drop", "drop"], "the service closed the connection without a reply"),
        (["reset", "reset"], "ConnectionResetError|the connection ended"),  # the latter if a FIN wins the race
        (["truncate", "truncate"], r"the connection ended after \d+ of \d+ body bytes"),
        (["garbage"], "not valid JSON"),
        (["http500"], "HTTP 500"),
        (["short_length"], "not valid JSON"),
        (["long_length"], "TimeoutError"),
        (["no_length"], "Content-Length"),
        (["huge_length"], "TimeoutError"),  # not a MemoryError from reading the claimed size at once
    ],
    ids=["drop", "reset", "truncate", "garbage", "http500", "short_length", "long_length", "no_length", "huge_length"],
)
def test_a_repeated_or_framing_fault_fails_its_document_alone(faults: list[str], error: str) -> None:
    with FaultServer(fixture_pipeline(), {"p2": faults}) as server:
        report = http_report(server.endpoint, timeout=0.5)
    by_id = {d.doc_id: d for d in report.per_document}
    assert re.search(error, by_id["p2"].protocol_error)
    assert by_id["p2"].pred_count == 0
    expected = {d.doc_id: d for d in in_process_report().per_document}
    assert by_id["p1"] == expected["p1"] and by_id["p3"] == expected["p3"]
    assert server.script["p2"] == []


def read_reply(rfile) -> tuple[int, bytes]:
    status = int(rfile.readline().split()[1])
    headers = read_headers(rfile)
    return status, rfile.read(int(headers[b"content-length"]))


def test_every_connection_is_served_by_the_same_two_threads() -> None:
    before = threading.active_count()
    service = serve(fixture_pipeline())
    service.start_background()
    sockets = []
    try:
        for _ in range(8):
            sockets.append(socket.create_connection(service.server_address[:2], timeout=5.0))
            sockets[-1].sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        for sock in sockets:
            with sock.makefile("rb") as rfile:
                assert read_reply(rfile)[0] == 200
        # the loop thread and its standby, however many connections are open
        assert threading.active_count() - before <= 2
    finally:
        for sock in sockets:
            sock.close()
        service.stop()


def test_pipelining_clients_with_slow_documents_each_get_their_replies_in_order() -> None:
    def sometimes_slow(text: str):
        if text.startswith("Slowly"):
            time.sleep(2 * SLOW_REQUEST_S)  # long enough for the standby to take the loop over
        return fixture_pipeline().linker(text)

    pipeline = AnnotationPipeline(sometimes_slow, name="sometimes-slow")
    texts, slow = ["Japan beat Syria", "Syria lost", "", "Japan"], ["Slowly Japan beat Syria", "Slowly Syria lost"]
    expected = {text: pipeline.annotate_triples(text) for text in texts + slow}
    service = serve(pipeline)
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            with socket.create_connection(service.server_address[:2], timeout=10.0) as sock, sock.makefile("rb") as rfile:
                for batch in range(4):
                    sent = [texts[(index + batch + k) % len(texts)] for k in range(4)]
                    if index < len(slow):  # these clients send a slow document in each batch
                        sent[batch] = slow[index]
                    sock.sendall(b"".join(
                        b"POST /annotate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                        for body in (encode_request(AnnotateRequest(text)) for text in sent)
                    ))
                    replies = [read_reply(rfile) for _ in sent]
                    assert [(status, decode_response(payload)) for status, payload in replies] == [
                        (200, expected[text]) for text in sent
                    ]
        except BaseException as exc:  # re-raised in the test's thread below
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        service.start_background()
        clients = [threading.Thread(target=client, args=(index,)) for index in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(switch_interval)
        started = time.perf_counter()
        service.stop()
        assert time.perf_counter() - started < 3.0
    assert errors == []
