from __future__ import annotations

import random
import string
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ann, offsets
from oracles import oracle_tokenize
from linkeval import (
    Span,
    SubtokenMap,
    merge_segment_annotations,
    normalize_annotations,
    split_document,
    subtoken_to_char,
    tokenize,
)
from linkeval.adapters import _token_offsets
from linkeval.errors import InvalidSpan, LengthMismatch, OutOfBounds, UnknownSubtoken


def surfaces(text: str) -> list[str]:
    return [t.surface for t in tokenize(text)]


def test_tokenize_plain_words() -> None:
    spans = [(t.span.begin, t.span.end) for t in tokenize("LATE GOALS GIVE JAPAN WIN")]
    assert spans == [(0, 4), (5, 10), (11, 15), (16, 21), (22, 25)]


def test_tokenize_detaches_trailing_period() -> None:
    tokens = tokenize("won.")
    assert [(t.surface, t.span.begin, t.span.end) for t in tokens] == [("won", 0, 3), (".", 3, 4)]


def test_tokenize_detaches_leading_and_trailing_punctuation() -> None:
    assert surfaces("(SOCCER)") == ["(", "SOCCER", ")"]
    assert surfaces("Corp.)") == ["Corp", ".", ")"]
    assert surfaces("...") == [".", ".", "."]


def test_tokenize_contractions() -> None:
    assert surfaces("don't") == ["do", "n't"]
    assert surfaces("Japan's") == ["Japan", "'s"]
    assert surfaces("can't") == ["ca", "n't"]
    assert surfaces("n't") == ["n't"]


def test_tokenize_keeps_internal_hyphens_and_dots() -> None:
    assert surfaces("1996-12-06") == ["1996-12-06"]
    assert surfaces("U.N. votes") == ["U.N", ".", "votes"]


@given(st.text(max_size=80))
def test_tokenize_offsets_slice_back(text: str) -> None:
    tokens = tokenize(text)
    for t in tokens:
        assert text[t.span.begin:t.span.end] == t.surface
        assert not any(c.isspace() for c in t.surface)
    # spans are strictly increasing and non-overlapping
    for a, b in zip(tokens, tokens[1:]):
        assert a.span.end <= b.span.begin
    # every non-whitespace character is covered by exactly one token
    covered = sum(len(t.surface) for t in tokens)
    assert covered == sum(1 for c in text if not c.isspace())


WHITESPACE = tuple(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())
TEXT_PIECES = (*WHITESPACE, *string.punctuation, "’", "n't", "N'T", "nt", "a", "n", "N", "t", "Σ", "é", "7")


def test_whitespace_pieces_include_the_unusual_separators() -> None:
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\u2028", "\xa0"} <= set(WHITESPACE)


@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=40))
@example(["\x1c", "don", "'", "t", "\u2028", "(", "N'T", ")", "\xa0", "’", "a", "’"])
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_oracle(pieces: list[str]) -> None:
    text = "".join(pieces)
    assert tokenize(text) == oracle_tokenize(text)


@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=40))
@settings(max_examples=300, deadline=None)
def test_token_offsets_are_the_tokenizer_spans(pieces: list[str]) -> None:
    text = "".join(pieces)
    spans = [(t.span.begin, t.span.end) for t in oracle_tokenize(text)]
    assert _token_offsets(text) == spans
    assert offsets(text) == spans


def make_sentences(count: int, tokens_each: int) -> str:
    parts = []
    for i in range(count):
        words = [f"w{i}x{j}" for j in range(tokens_each - 1)]
        parts.append(" ".join(words) + " .")
    return " ".join(parts)


def test_split_short_document_is_identity() -> None:
    text = "Japan won the match."
    segments = split_document(text, 512)
    assert len(segments) == 1
    assert segments[0].text == text
    assert segments[0].char_offset == 0


def test_split_empty_document() -> None:
    segments = split_document("", 10)
    assert len(segments) == 1
    assert segments[0].text == ""
    assert segments[0].token_range == (0, 0)


def test_split_prefers_sentence_boundaries() -> None:
    # 600 sentences of 6 tokens each; the last boundary at or below 512 is 510
    text = make_sentences(600, 6)
    segments = split_document(text, 512)
    first_tokens = segments[0].token_range[1] - segments[0].token_range[0]
    assert first_tokens == 510
    assert segments[0].text.endswith(".")


def test_split_hard_cut_without_punctuation() -> None:
    text = " ".join(f"t{i}" for i in range(600))
    segments = split_document(text, 512)
    assert [s.token_range for s in segments] == [(0, 512), (512, 600)]


def test_split_never_cuts_inside_token() -> None:
    text = make_sentences(40, 7)
    tokens = tokenize(text)
    boundaries = {t.span.begin for t in tokens} | {t.span.end for t in tokens}
    for segment in split_document(text, 16):
        assert segment.char_offset in boundaries
        assert segment.char_offset + len(segment.text) in boundaries


def test_split_segments_tile_the_document() -> None:
    text = make_sentences(50, 5)
    segments = split_document(text, 17)
    assert segments[0].token_range[0] == 0
    for a, b in zip(segments, segments[1:]):
        assert a.token_range[1] == b.token_range[0]
    assert segments[-1].token_range[1] == len(tokenize(text))
    for segment in segments:
        assert text[segment.char_offset:segment.char_offset + len(segment.text)] == segment.text


def test_split_tokenizes_the_document_once() -> None:
    seen: list[str] = []

    def counting(text: str):
        seen.append(text)
        return tokenize(text)

    text = make_sentences(10, 5)
    assert len(split_document(text, 7, tokenizer=counting)) > 1
    assert seen == [text]


def test_segment_cut_inside_a_chunk_slices_the_document_tokens() -> None:
    # the document's tokens are won|by|Japan|'s|team; a cut after Japan
    # leaves "'s team", which keeps 's whole although alone it splits as '|s
    first, second = split_document("won by Japan's team", 3)
    assert (first.text, first.token_range, first.tokens) == ("won by Japan", (0, 3), ((0, 3), (4, 6), (7, 12)))
    assert (second.text, second.token_range, second.tokens) == ("'s team", (3, 5), ((0, 2), (3, 7)))


SEGMENT_PIECES = ("Japan", "team", "won", "n't", "'s", "’", "'", "do", ".", "!", "?", ",", "(", ")", '"', " ", "  ", "\n")


@given(st.lists(st.sampled_from(SEGMENT_PIECES), max_size=40), st.integers(1, 6))
@example(["Japan", "'s"], 1)
@example(["won", " ", "by", " ", "Japan", "'s", " ", "team"], 3)
@example([" ", "(", "Japan", ".", ")", " ", "do", "n't", "!", " "], 2)
@settings(max_examples=500, deadline=None)
def test_segment_tokens_are_the_documents_slice(pieces: list[str], max_tokens: int) -> None:
    text = "".join(pieces)
    document = offsets(text)
    for segment in split_document(text, max_tokens):
        first, last = segment.token_range
        shift = segment.char_offset
        assert len(segment.tokens) <= max_tokens
        assert list(segment.tokens) == [(begin - shift, end - shift) for begin, end in document[first:last]]


def test_split_rejects_bad_max_tokens() -> None:
    with pytest.raises(ValueError):
        split_document("x", 0)


def test_merge_shifts_by_segment_offset() -> None:
    text = make_sentences(40, 6)
    segments = split_document(text, 30)
    assert len(segments) > 2
    per_segment: list[list] = [[] for _ in segments]
    expected = []
    surfaces_by_span: dict[tuple[int, int], str] = {}
    rng = random.Random(7)
    for i, segment in enumerate(segments):
        seg_tokens = tokenize(segment.text)
        for _ in range(3):
            t = rng.choice(seg_tokens)
            entity = f"E{rng.randint(1, 4)}"
            per_segment[i].append(ann(t.span.begin, t.span.end, entity))
            shifted = ann(t.span.begin + segment.char_offset, t.span.end + segment.char_offset, entity)
            expected.append(shifted)
            surfaces_by_span[(shifted.span.begin, shifted.span.end)] = t.surface
    merged = merge_segment_annotations(segments, per_segment)
    assert merged == normalize_annotations(expected)
    for a in merged:
        assert text[a.span.begin:a.span.end] == surfaces_by_span[(a.span.begin, a.span.end)]


def test_merge_length_mismatch() -> None:
    segments = split_document("one two three", 2)
    with pytest.raises(LengthMismatch):
        merge_segment_annotations(segments, [[]])


def test_merge_rejects_out_of_segment_span() -> None:
    segments = split_document("short text", 512)
    with pytest.raises(OutOfBounds):
        merge_segment_annotations(segments, [[ann(0, 99, "E1")]])


def test_subtoken_to_char_inclusive_range() -> None:
    mapping = SubtokenMap(entries=((0, Span(0, 5)), (1, Span(6, 9)), (2, Span(9, 12))))
    out = subtoken_to_char([(1, 2, "B")], mapping)
    assert out == [(Span(6, 12), "B")]


def test_subtoken_to_char_reads_a_plain_mapping() -> None:
    assert subtoken_to_char([(0, 1, "B")], {0: Span(0, 5), 1: Span(6, 9)}) == [(Span(0, 9), "B")]


def test_subtoken_to_char_unknown_index() -> None:
    mapping = SubtokenMap(entries=((0, Span(0, 5)),))
    with pytest.raises(UnknownSubtoken):
        subtoken_to_char([(0, 3, "B")], mapping)


def test_subtoken_to_char_reversed_range() -> None:
    mapping = SubtokenMap(entries=((0, Span(0, 5)), (1, Span(6, 9))))
    with pytest.raises(InvalidSpan):
        subtoken_to_char([(1, 0, "B")], mapping)


def test_subtoken_map_requires_increasing_indices() -> None:
    with pytest.raises(ValueError):
        SubtokenMap(entries=((1, Span(0, 2)), (1, Span(3, 4))))
