from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ann
from oracles import oracle_parse_conll
from linkeval import ConllLayout, Corpus, EntityId, filter_inkb, parse_conll, reconstruct_text
from linkeval.errors import DanglingITag, EmptyCorpus, LinkEvalError, MalformedLine


def test_reconstruct_sentence_final_period_attaches() -> None:
    text, spans = reconstruct_text(["Japan", "won", "."])
    assert text == "Japan won."
    assert [(s.span.begin, s.span.end) for s in spans] == [(0, 5), (6, 9), (9, 10)]
    assert all(text[s.span.begin:s.span.end] == s.surface for s in spans)


def test_reconstruct_brackets_glue_both_sides() -> None:
    text, spans = reconstruct_text(["(", "SOCCER", ")"])
    assert text == "(SOCCER)"
    assert [(s.span.begin, s.span.end) for s in spans] == [(0, 1), (1, 7), (7, 8)]


def test_reconstruct_closing_punctuation_set() -> None:
    text, _ = reconstruct_text(["Tokyo", "'s", "win", ",", "then", ";", "done", "!"])
    assert text == "Tokyo's win, then; done!"


def test_reconstruct_sentence_breaks_do_not_change_spacing() -> None:
    with_breaks = parse_conll(b"-DOCSTART- (d1)\nJapan O\nwon O\n. O\n\nSyria O\nlost O\n. O\n")
    without, _ = reconstruct_text(["Japan", "won", ".", "Syria", "lost", "."])
    assert with_breaks.documents[0].text == without == "Japan won. Syria lost."


def test_parse_single_doc_example() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nJapan B JAPAN_NT\nwon O\n")
    assert len(corpus) == 1
    doc = corpus.documents[0]
    assert doc.doc_id == "d1"
    assert doc.text == "Japan won"
    assert list(doc.gold) == [ann(0, 5, "JAPAN_NT")]


def test_parse_merges_bi_runs() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nNew B NY\nYork I NY\nwins O\n")
    doc = corpus.documents[0]
    assert doc.text == "New York wins"
    assert list(doc.gold) == [ann(0, 8, "NY")]


def test_parse_adjacent_b_runs_stay_separate() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nJapan B JAPAN_NT\nSyria B SYRIA_NT\n")
    assert list(corpus.documents[0].gold) == [ann(0, 5, "JAPAN_NT"), ann(6, 11, "SYRIA_NT")]


def test_parse_nme_maps_to_none_entity() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nSomeone B --NME--\nspoke O\n")
    doc = corpus.documents[0]
    assert len(doc.gold) == 1
    assert doc.gold[0].entity.is_none
    assert filter_inkb(doc.gold, {EntityId("X")}) == []


def test_parse_run_ends_at_document_end() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nAsian B AC\nCup I AC\n")
    assert list(corpus.documents[0].gold) == [ann(0, 9, "AC")]


def test_parse_dangling_i_tag_variants() -> None:
    with pytest.raises(DanglingITag):
        parse_conll(b"-DOCSTART- (d1)\nYork I NY\n")
    with pytest.raises(DanglingITag):
        parse_conll(b"-DOCSTART- (d1)\nwon O\nYork I NY\n")
    with pytest.raises(DanglingITag):
        parse_conll(b"-DOCSTART- (d1)\nNew B NY\nYork I OTHER\n")


def test_parse_malformed_lines() -> None:
    with pytest.raises(MalformedLine):
        parse_conll(b"-DOCSTART- (d1)\nJapan Q JAPAN_NT\n")
    with pytest.raises(MalformedLine):
        parse_conll(b"-DOCSTART- (d1)\nJapan B\n")
    with pytest.raises(MalformedLine):
        parse_conll(b"stray line\n-DOCSTART- (d1)\nJapan O\n")


def test_parse_empty_corpus() -> None:
    with pytest.raises(EmptyCorpus):
        parse_conll(b"")
    with pytest.raises(EmptyCorpus):
        parse_conll(b"\n\n")


def test_parse_doc_ids() -> None:
    corpus = parse_conll(b"-DOCSTART- (947testa CRICKET)\nx O\n-DOCSTART-\ny O\n")
    assert [d.doc_id for d in corpus.documents] == ["947testa CRICKET", "doc-1"]


def test_parse_duplicate_doc_ids_rejected() -> None:
    with pytest.raises(MalformedLine, match="^line 3: "):
        parse_conll(b"-DOCSTART- (d1)\nx O\n-DOCSTART- (d1)\ny O\n")


def test_parse_empty_document_allowed() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\n")
    doc = corpus.documents[0]
    assert doc.text == ""
    assert doc.gold == ()


def test_parse_tab_separated_columns() -> None:
    corpus = parse_conll(b"-DOCSTART- (d1)\nNew York\tB\tNY\ncalls O\n")
    doc = corpus.documents[0]
    # tab layout keeps internal spaces in the surface column
    assert doc.text == "New York calls"
    assert list(doc.gold) == [ann(0, 8, "NY")]


def test_parse_custom_layout() -> None:
    data = b"-DOCSTART- (d1)\nJapan\tNNP\tB\tJAPAN_NT\nwon\tVBD\tO\tx\n"
    corpus = parse_conll(data, layout=ConllLayout(surface_col=0, bio_col=2, entity_col=3))
    doc = corpus.documents[0]
    assert doc.text == "Japan won"
    assert list(doc.gold) == [ann(0, 5, "JAPAN_NT")]


def test_parse_gold_spans_slice_to_token_join() -> None:
    corpus = parse_conll(
        b"-DOCSTART- (d1)\nThe O\nAsian B AC\nCup I AC\nfinal O\n. O\n\nJapan B JP\nwon O\n"
    )
    doc = corpus.documents[0]
    for a in doc.gold:
        mention = doc.text[a.span.begin:a.span.end]
        assert mention in ("Asian Cup", "Japan")


def test_parse_rejects_non_utf8() -> None:
    with pytest.raises(MalformedLine):
        parse_conll(b"-DOCSTART- (d1)\n\xff\xfe O\n")


LAYOUTS = (ConllLayout(), ConllLayout(surface_col=0, bio_col=2, entity_col=3), ConllLayout(surface_col=1, bio_col=0, entity_col=2))
HEADERS = ("-DOCSTART- (a)", "-DOCSTART- (b)", "-DOCSTART-", "-DOCSTART- ()", "-DOCSTART- x y", " -DOCSTART- (a)")
SURFACES = ("Japan", "won", "New York", "(", "[x", ")", "y]", ".", ",", "'s", ";b", "a(", "Σ", "")
TAGS = ("O", "O", "O", "O", "B", "B", "B", "I", "I", "I", "Q", "")
ENTITIES = ("E1", "E1", "E1", "E1", "E1", "E2", "--NME--", "", " E1")


def _cells(layout: ConllLayout, surface: str, tag: str, entity: str) -> list[str]:
    cells = ["NNP"] * (max(layout.surface_col, layout.bio_col, layout.entity_col) + 1)
    cells[layout.surface_col], cells[layout.bio_col], cells[layout.entity_col] = surface, tag, entity
    return cells


@st.composite
def conll_lines(draw, layout: ConllLayout) -> list[str]:
    """One header, blank line or token line, or a well-formed B/I run of one entity."""
    kind = draw(st.sampled_from(("header", "blank", "run", "token", "token", "token", "token")))
    if kind == "header":
        return [draw(st.sampled_from(HEADERS))]
    if kind == "blank":
        return [draw(st.sampled_from(("", "  ", "\t")))]
    if kind == "run":
        entity = draw(st.sampled_from(ENTITIES[:-2]))
        tags = ["B"] + ["I"] * draw(st.integers(0, 2))
        return ["\t".join(_cells(layout, draw(st.sampled_from(SURFACES[:-1])), tag, entity)) for tag in tags]
    cells = _cells(layout, draw(st.sampled_from(SURFACES)), draw(st.sampled_from(TAGS)), draw(st.sampled_from(ENTITIES)))
    # mostly every column; one column is a surface-only line
    columns = draw(st.sampled_from((len(cells),) * 6 + tuple(range(1, len(cells)))))
    return [draw(st.sampled_from(("\t", " "))).join(cells[:columns])]


@st.composite
def conll_input(draw) -> tuple[str, ConllLayout]:
    layout = draw(st.sampled_from(LAYOUTS))
    lines = [line for group in draw(st.lists(conll_lines(layout), max_size=10)) for line in group]
    first = draw(st.sampled_from((HEADERS[0],) * 3 + ("",)))
    return "\n".join([first, *lines]), layout


def _outcome(parse, text: str, layout: ConllLayout) -> Corpus | Exception:
    try:
        return parse(text, layout)
    except (LinkEvalError, ValueError) as exc:
        return exc


@given(conll_input())
@example(("-DOCSTART- (a)\nx O\n-DOCSTART- (a)\ny Q\n", ConllLayout()))
@example(("-DOCSTART- (a)\nNew B E1\n\nYork I E1\n(\tO\nJapan B E1\n. O\n", ConllLayout()))
@example(("-DOCSTART- (a)\nJapan\tB\t E1\n", ConllLayout()))
@settings(max_examples=600, deadline=None)
def test_parse_matches_oracle(case: tuple[str, ConllLayout]) -> None:
    text, layout = case
    lines = text.splitlines()
    got = _outcome(parse_conll, text, layout)
    if isinstance(got, MalformedLine) and "duplicate document id" in str(got):
        # read in one pass, a repeated id fails at its header; the oracle finds it once every line is read
        text = "\n".join(lines[: got.line_number])
    expected = _outcome(oracle_parse_conll, text, layout)
    if type(expected) is ValueError:
        # the oracle's bare ValueError is a MalformedLine naming the first bad line
        assert type(got) is MalformedLine
        assert str(got) == f"line {got.line_number}: {expected}"
        assert isinstance(_outcome(oracle_parse_conll, "\n".join(lines[: got.line_number - 1]), layout), Corpus)
    elif isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got == expected
