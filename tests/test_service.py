from __future__ import annotations

import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DICT_TSV, ann
from linkeval import (
    AnnotateRequest,
    AnnotationPipeline,
    CandidateMode,
    CandidatePolicy,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    link_prior_argmax,
    load_alias_dictionary,
    serve,
    validate_triples,
)
from linkeval.errors import BindFailure, MalformedRequest, ProtocolViolation
from linkeval.service import MAX_BODY_BYTES, REQUEST_TIMEOUT_S

printable_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
)


@given(text=printable_text, doc_id=st.one_of(st.none(), st.text(max_size=30)))
@settings(max_examples=100, deadline=None)
def test_request_codec_roundtrip(text: str, doc_id: str | None) -> None:
    request = AnnotateRequest(text=text, doc_id=doc_id)
    assert decode_request(encode_request(request)) == request


@given(
    triples=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=500),
            st.integers(min_value=-5, max_value=500),
            st.text(min_size=1, max_size=20),
        ),
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_response_codec_roundtrip(triples: list[tuple[int, int, str]]) -> None:
    assert decode_response(encode_response(triples)) == triples


@pytest.mark.parametrize(
    "body",
    [
        b"not json",
        b"[1, 2, 3]",
        b'{"no_text": true}',
        b'{"text": 5}',
        b'{"text": "ok", "doc_id": 9}',
        b"\xff\xfe",
    ],
)
def test_decode_request_rejects_malformed(body: bytes) -> None:
    with pytest.raises(MalformedRequest):
        decode_request(body)


@pytest.mark.parametrize(
    "body",
    [
        b"not json",
        b'{"annotations": "nope"}',
        b"{}",
        b'{"annotations": [42]}',
        b'{"annotations": [{"begin": "0", "end": 5, "entity": "E"}]}',
        b'{"annotations": [{"begin": 0, "end": true, "entity": "E"}]}',
        b'{"annotations": [{"begin": 0, "end": 5, "entity": ""}]}',
        b'{"annotations": [{"begin": 0, "end": 5}]}',
        b'{"annotations": [{"begin": 0.5, "end": 5, "entity": "E"}]}',
    ],
)
def test_decode_response_rejects_malformed(body: bytes) -> None:
    with pytest.raises(ProtocolViolation):
        decode_response(body)


def test_validate_triples_happy_path() -> None:
    out = validate_triples([(0, 5, "JAPAN_NT"), (6, 9, "--NME--")], "Japan won")
    assert out == [ann(0, 5, "JAPAN_NT"), ann(6, 9, "--NME--")]
    assert out[1].entity.is_none


@pytest.mark.parametrize("triple", [(-1, 3, "E"), (3, 3, "E"), (5, 2, "E"), (0, 10, "E")])
def test_validate_triples_bad_offsets(triple: tuple[int, int, str]) -> None:
    with pytest.raises(ProtocolViolation):
        validate_triples([triple], "Japan won")


def test_validate_triples_bad_entity_text() -> None:
    with pytest.raises(ProtocolViolation):
        validate_triples([(0, 5, "  padded  ")], "Japan won")


def fixture_pipeline(max_tokens: int = 512) -> AnnotationPipeline:
    policy = CandidatePolicy(
        CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(FIXTURE_DICT_TSV)
    )
    return AnnotationPipeline(
        lambda text: link_prior_argmax(text, policy), max_tokens=max_tokens, name="prior"
    )


def test_pipeline_annotates_directly() -> None:
    pipeline = fixture_pipeline()
    assert pipeline.annotate_triples("Japan beat Syria") == [
        (0, 5, "JAPAN_NT"),
        (11, 16, "SYRIA_NT"),
    ]
    assert pipeline.annotate_triples("") == []


def test_pipeline_segmenting_matches_single_shot() -> None:
    pipeline_whole = fixture_pipeline(max_tokens=512)
    pipeline_split = fixture_pipeline(max_tokens=3)
    text = "Japan beat Syria . China beat Japan . Syria lost . " * 8
    assert pipeline_split.annotate(text) == pipeline_whole.annotate(text)


def test_pipeline_rejects_bad_max_tokens() -> None:
    with pytest.raises(ValueError):
        AnnotationPipeline(lambda text: [], max_tokens=0)


@pytest.fixture()
def live_service():
    service = serve(fixture_pipeline())
    service.start_background()
    try:
        yield service
    finally:
        service.stop()


def http_post(url: str, body: bytes) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def http_get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_service_annotate_roundtrip(live_service) -> None:
    body = encode_request(AnnotateRequest(text="Japan beat Syria", doc_id="d1"))
    status, payload = http_post(live_service.endpoint + "/annotate", body)
    assert status == 200
    assert decode_response(payload) == [(0, 5, "JAPAN_NT"), (11, 16, "SYRIA_NT")]


def test_service_empty_text_gives_empty_annotations(live_service) -> None:
    status, payload = http_post(live_service.endpoint + "/annotate", encode_request(AnnotateRequest("")))
    assert status == 200
    assert decode_response(payload) == []


def test_service_malformed_request_is_400(live_service) -> None:
    status, payload = http_post(live_service.endpoint + "/annotate", b"{broken")
    assert status == 400
    assert json.loads(payload)["error"] == "malformed_request"


def raw_send(service, *segments: bytes, wait: float = 5.0) -> bytes:
    """Send each segment in its own write, 50 ms apart; return all the server sent before closing.

    Raises TimeoutError when the server neither closes nor sends for
    ``wait`` seconds, so a hung handler fails the test instead of hanging it.
    """
    with socket.create_connection(service.server_address[:2], timeout=wait) as sock:
        for index, segment in enumerate(segments):
            if index:
                time.sleep(0.05)
            sock.sendall(segment)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def raw_exchange(service, head: bytes, body: bytes = b"", wait: float = 5.0, path: bytes = b"/annotate") -> bytes:
    """Send one raw POST; return all the server sent before closing."""
    return raw_send(service, b"POST " + path + b" HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n" + body, wait=wait)


def replies(response: bytes) -> list[tuple[int, bytes]]:
    """Split everything a connection received into (status, body) pairs."""
    out = []
    while response:
        head, _, response = response.partition(b"\r\n\r\n")
        length = re.search(rb"\r\ncontent-length: *(\d+)", head, re.IGNORECASE)
        size = int(length.group(1)) if length else 0
        out.append((int(head.split()[1]), response[:size]))
        response = response[size:]
    return out


def annotate_request(text: str, version: bytes = b"HTTP/1.1", extra: bytes = b"") -> tuple[bytes, bytes]:
    body = encode_request(AnnotateRequest(text))
    return b"POST /annotate " + version + b"\r\nContent-Length: %d\r\n" % len(body) + extra + b"\r\n", body


def status_and_error(response: bytes) -> tuple[int, str]:
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)["error"]


def test_missing_content_length_is_411_and_closes(live_service) -> None:
    assert status_and_error(raw_exchange(live_service, b"", b"{}")) == (411, "length_required")


@pytest.mark.parametrize("length", [b"-1", b"ten"])
def test_bad_content_length_is_400_and_closes(live_service, length: bytes) -> None:
    response = raw_exchange(live_service, b"Content-Length: " + length + b"\r\n", b"{}")
    assert status_and_error(response) == (400, "malformed_request")


def test_oversized_body_is_413_without_reading_it(live_service) -> None:
    head = b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1)
    assert status_and_error(raw_exchange(live_service, head)) == (413, "body_too_large")


def test_content_length_of_thousands_of_digits_is_413_and_closes(live_service) -> None:
    # more digits than int() converts by default
    response = raw_exchange(live_service, b"Content-Length: " + b"9" * 5000 + b"\r\n")
    assert status_and_error(response) == (413, "body_too_large")


def test_body_shorter_than_header_times_out(monkeypatch) -> None:
    assert 0 < REQUEST_TIMEOUT_S <= 60
    # the same path as the real timeout, shortened to keep the test fast
    monkeypatch.setattr("linkeval.service.REQUEST_TIMEOUT_S", 0.5)
    service = serve(fixture_pipeline())
    service.start_background()
    try:
        assert raw_exchange(service, b"Content-Length: 100\r\n", b'{"text": "Japan"}') == b""
    finally:
        service.stop()


def test_service_unknown_path_is_404(live_service) -> None:
    status, _ = http_post(live_service.endpoint + "/elsewhere", b"{}")
    assert status == 404
    status, _ = http_get(live_service.endpoint + "/nope")
    assert status == 404


def test_post_to_unknown_path_is_404_and_closes(live_service) -> None:
    # the unread body must not be parsed as the next request on the connection
    smuggled = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
    head = b"Content-Length: %d\r\n" % len(smuggled)
    response = raw_exchange(live_service, head, smuggled, path=b"/elsewhere")
    assert response.count(b"HTTP/1.1 ") == 1
    assert status_and_error(response) == (404, "not_found")


def test_get_with_a_body_closes_after_its_reply(live_service) -> None:
    # the unread body must not be parsed as the next request on the connection
    smuggled = b"GET /nothing HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    request = b"GET /health HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n" % len(smuggled)
    assert [status for status, _ in replies(raw_send(live_service, request + smuggled))] == [200]


def test_transfer_encoding_is_501_and_closes_before_the_body(live_service) -> None:
    # a chunked body read by its Content-Length would leave chunk bytes to parse as a request line
    _, body = annotate_request("Japan")
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
    response = raw_exchange(live_service, b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n", chunked)
    assert response.count(b"HTTP/1.1 ") == 1
    assert status_and_error(response) == (501, "not_implemented")


def test_linker_failure_500_names_the_exception_class_only(capsys) -> None:
    def exploding(text: str):
        raise RuntimeError("cannot open /srv/private/model.bin")

    service = serve(AnnotationPipeline(exploding, name="broken"))
    service.start_background()
    try:
        body = encode_request(AnnotateRequest("Japan"))
        head = b"Content-Length: %d\r\nConnection: close\r\n" % len(body)
        response = raw_exchange(service, head, body)
    finally:
        service.stop()
    _, _, payload = response.partition(b"\r\n\r\n")
    assert status_and_error(response) == (500, "annotator_failure")
    assert json.loads(payload)["detail"] == "RuntimeError"
    # the client gets the class only; the server's stderr keeps the rest
    err = capsys.readouterr().err
    assert "Traceback" in err and "cannot open /srv/private/model.bin" in err


def test_service_health(live_service) -> None:
    status, payload = http_get(live_service.endpoint + "/health")
    assert status == 200
    body = json.loads(payload)
    assert body == {"service": "linkeval-annotator", "linker": "prior"}


def test_service_linker_crash_is_500() -> None:
    def exploding(text: str):
        raise RuntimeError("boom")

    service = serve(AnnotationPipeline(exploding, name="broken"))
    service.start_background()
    try:
        status, payload = http_post(
            service.endpoint + "/annotate", encode_request(AnnotateRequest("Japan"))
        )
        assert status == 500
        assert json.loads(payload)["error"] == "annotator_failure"
    finally:
        service.stop()


def test_bind_failure_on_taken_port(live_service) -> None:
    taken = live_service.server_address[1]
    with pytest.raises(BindFailure):
        serve(fixture_pipeline(), host="127.0.0.1", port=taken)


def test_unicode_offsets_count_code_points(live_service) -> None:
    text = "ünicode Japan"
    body = encode_request(AnnotateRequest(text=text))
    status, payload = http_post(live_service.endpoint + "/annotate", body)
    assert status == 200
    (triple,) = decode_response(payload)
    begin, end, entity = triple
    assert text[begin:end] == "Japan"
    assert entity == "JAPAN_NT"


# Framing that http.server handled for the service before it parsed HTTP itself.


def test_request_line_headers_and_body_in_separate_segments(live_service) -> None:
    head, body = annotate_request("Japan beat Syria", extra=b"Connection: close\r\n")
    request_line, headers = head.split(b"\r\n", 1)
    response = raw_send(live_service, request_line + b"\r\n", headers, body)
    assert [(status, decode_response(payload)) for status, payload in replies(response)] == [
        (200, [(0, 5, "JAPAN_NT"), (11, 16, "SYRIA_NT")])
    ]


def test_request_line_over_64_kib_is_414_and_closes(live_service) -> None:
    # exactly the bytes the server reads, so closing leaves nothing unread to reset the connection
    response = raw_send(live_service, b"GET /" + b"a" * (65537 - 5))
    assert [status for status, _ in replies(response)] == [414]


@pytest.mark.parametrize(
    "headers",
    [b"X-Long: " + b"a" * (65537 - 8), b"X-Many: 1\r\n" * 101],
    ids=["line-over-64-kib", "101-lines"],
)
def test_oversized_header_block_is_431_and_closes(live_service, headers: bytes) -> None:
    response = raw_send(live_service, b"POST /annotate HTTP/1.1\r\n" + headers)
    assert [status for status, _ in replies(response)] == [431]


def test_header_block_without_its_blank_line_times_out(monkeypatch) -> None:
    monkeypatch.setattr("linkeval.service.REQUEST_TIMEOUT_S", 0.5)
    service = serve(fixture_pipeline())
    service.start_background()
    try:
        assert raw_send(service, b"POST /annotate HTTP/1.1\r\nHost: test\r\nContent-Length: 5\r\n") == b""
    finally:
        service.stop()


def test_pipelined_requests_are_answered_in_order(live_service) -> None:
    first = b"".join(annotate_request("Japan"))
    second = b"".join(annotate_request("Syria lost", extra=b"Connection: close\r\n"))
    response = raw_send(live_service, first + second)
    assert [(status, decode_response(payload)) for status, payload in replies(response)] == [
        (200, [(0, 5, "JAPAN_NT")]),
        (200, [(0, 5, "SYRIA_NT")]),
    ]


def test_expect_100_continue_gets_an_interim_reply_before_the_body(live_service) -> None:
    head, body = annotate_request("Japan", extra=b"Expect: 100-continue\r\nConnection: close\r\n")
    with socket.create_connection(live_service.server_address[:2], timeout=5.0) as sock:
        sock.sendall(head)
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        sock.sendall(body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
    assert [(status, decode_response(payload)) for status, payload in replies(b"".join(chunks))] == [
        (200, [(0, 5, "JAPAN_NT")])
    ]


def test_http_1_0_request_closes_after_its_reply(live_service) -> None:
    response = raw_send(live_service, b"".join(annotate_request("Japan", version=b"HTTP/1.0")))
    assert [(status, decode_response(payload)) for status, payload in replies(response)] == [
        (200, [(0, 5, "JAPAN_NT")])
    ]


def test_unknown_method_is_501_and_closes(live_service) -> None:
    response = raw_send(live_service, b"DELETE /annotate HTTP/1.1\r\nHost: test\r\n\r\n")
    assert [status for status, _ in replies(response)] == [501]
