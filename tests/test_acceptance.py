"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE NN PASS`` line when it holds (run with ``-s`` to see them).
These run after all other test modules so the final wall-time check
covers the whole suite.
"""

from __future__ import annotations

import random
import time
from collections.abc import Mapping
from contextlib import closing
from pathlib import Path

import pytest

from conftest import (
    ENTITY_POOL,
    FIXTURE_CONLL,
    FIXTURE_DICT_TSV,
    SESSION_START,
    VOCAB_5,
    ann,
    random_gold,
    random_predictions,
)
from oracles import greedy_decode, hash_scorer, oracle_match
from linkeval import (
    Annotation,
    AnnotationPipeline,
    CandidateMode,
    CandidatePolicy,
    CoherenceParams,
    EmbeddingTable,
    HttpAnnotator,
    InProcessAnnotator,
    MatchResult,
    RunConfig,
    Span,
    build_trie,
    candidates_for,
    constrained_beam_decode,
    error_ratios,
    link_coherence_rerank,
    link_prior_argmax,
    load_alias_dictionary,
    load_vocabulary,
    match_annotations,
    merge_segment_annotations,
    micro_prf,
    normalize_annotations,
    parse_conll,
    ratio_row,
    run_benchmark,
    serve,
    split_document,
    tokenize,
)
from linkeval.cli import cli_main
from linkeval.reports import DELTA_FILE, RATIO_FILE

ARITHMETIC_TOLERANCE = 1e-9


def passed(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS  {detail}")


PERFECTION_CONLL = b"""-DOCSTART- (p1)
Japan B JAPAN_NT
won O

-DOCSTART- (p2)
Syria B SYRIA_NT
lost O

-DOCSTART- (p3)
Japan B JAPAN_NT
beat O
Syria B SYRIA_NT
. O
"""


def test_acceptance_01_scoring_matches_brute_force_oracle() -> None:
    rng = random.Random(101)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        gold = random_gold(rng, max_count=20)
        pred = random_predictions(rng, max_count=20)
        result = match_annotations(gold, pred, VOCAB_5)
        expected = oracle_match(gold, pred, VOCAB_5)
        actual = {
            "tp": result.tp_count,
            "incorrect_entity": len(result.incorrect_entity),
            "incorrect_mention": len(result.incorrect_mention),
            "over_generated": len(result.over_generated),
            "under_generated": len(result.under_generated),
            "gold_count": result.gold_count,
            "pred_count": result.pred_count,
        }
        if actual != dict(expected):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0
    passed(1, f"0 disagreements on 1000 randomized instances in {elapsed:.2f}s (< 10s)")


def test_acceptance_02_micro_metric_arithmetic() -> None:
    result = MatchResult(
        true_positives=tuple((ann(i, i + 1, "A"), ann(i, i + 1, "A")) for i in (0, 2, 4)),
        incorrect_entity=(),
        incorrect_mention=(),
        over_generated=(ann(10, 11, "B"), ann(12, 13, "B")),
        under_generated=(ann(20, 21, "C"),),
        gold_count=4,
        pred_count=5,
    )
    p, r, f1 = micro_prf(result)
    assert abs(p - 0.6) <= ARITHMETIC_TOLERANCE
    assert abs(r - 0.75) <= ARITHMETIC_TOLERANCE
    assert abs(f1 - 2 / 3) <= ARITHMETIC_TOLERANCE
    empty = MatchResult((), (), (), (), (), gold_count=0, pred_count=0)
    assert micro_prf(empty) == (1.0, 1.0, 1.0)
    passed(2, "P=0.6 R=0.75 F1=2/3 within 1e-9; empty-vs-empty scores 1.0 across the board")


def test_acceptance_03_error_ratio_partition() -> None:
    rng = random.Random(303)
    for _ in range(1000):
        result = match_annotations(random_gold(rng), random_predictions(rng), VOCAB_5)
        classified = (
            result.tp_count
            + len(result.incorrect_entity)
            + len(result.incorrect_mention)
            + len(result.over_generated)
        )
        assert classified == result.pred_count
        if result.gold_count > 0:
            breakdown = error_ratios(result)
            assert breakdown.over_generated == len(result.over_generated) / result.gold_count
            assert breakdown.under_generated == len(result.under_generated) / result.gold_count
            assert breakdown.incorrect_entity == len(result.incorrect_entity) / result.gold_count
            assert breakdown.incorrect_mention == len(result.incorrect_mention) / result.gold_count

    def block(start: int, count: int, entity: str) -> tuple[Annotation, ...]:
        return tuple(ann(3 * i, 3 * i + 2, entity) for i in range(start, start + count))

    corpus_scale = MatchResult(
        true_positives=(),
        incorrect_entity=block(0, 284, "A"),
        incorrect_mention=block(300, 56, "B"),
        over_generated=block(400, 311, "C"),
        under_generated=block(800, 240, "D"),
        gold_count=4791,
        pred_count=284 + 56 + 311,
    )
    breakdown = error_ratios(corpus_scale)
    assert breakdown.over_generated == 311 / 4791
    assert breakdown.under_generated == 240 / 4791
    assert breakdown.incorrect_entity == 284 / 4791
    assert breakdown.incorrect_mention == 56 / 4791
    assert ratio_row("run", breakdown) == "run\t0.0649\t0.0501\t0.0593\t0.0117"
    passed(3, "categories partition predictions on 1000 instances; ratios divide by gold_count=4791")


def test_acceptance_04_adapter_roundtrips() -> None:
    started = time.perf_counter()
    rng = random.Random(404)
    max_tokens = 16

    for _ in range(100):
        words = [
            "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(2 * max_tokens, 4 * max_tokens))
        ]
        for i in rng.sample(range(len(words)), k=len(words) // 6):
            words[i] += rng.choice([".", "!", "?", ","])
        text = " ".join(words)
        segments = split_document(text, max_tokens)
        assert len(segments) >= 2
        locals_per_segment: list[list[Annotation]] = []
        document_level: list[Annotation] = []
        for segment in segments:
            assert text[segment.char_offset : segment.char_offset + len(segment.text)] == segment.text
            seg_tokens = tokenize(segment.text)
            chosen: list[Annotation] = []
            for _ in range(rng.randint(0, 5)):
                first = rng.randrange(len(seg_tokens))
                last = min(len(seg_tokens) - 1, first + rng.randint(0, 3))
                span = Span(seg_tokens[first].span.begin, seg_tokens[last].span.end)
                if any(span.overlaps(a.span) for a in chosen):
                    continue
                chosen.append(Annotation(span, rng.choice(ENTITY_POOL)))
            locals_per_segment.append(chosen)
            document_level.extend(
                Annotation(a.span.shift(segment.char_offset), a.entity) for a in chosen
            )
        merged = merge_segment_annotations(segments, locals_per_segment)
        assert merged == normalize_annotations(document_level)

    for _ in range(1000):
        length = rng.randint(0, 120)
        text = "".join(
            rng.choice("abcXYZ 12.,!?'()-[]{}ü中 ") for _ in range(length)
        )
        for token in tokenize(text):
            assert text[token.span.begin : token.span.end] == token.surface

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(4, f"split+merge identity on 100 docs; offsets exact on 1000 texts; {elapsed:.2f}s (< 5s)")


def test_acceptance_05_trie_constrained_decoding() -> None:
    rng = random.Random(505)
    alphabet = "ABC_"

    for seed in range(500):
        entries = sorted(
            {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 10))
            }
        )
        trie = build_trie(entries)
        decoded = constrained_beam_decode(hash_scorer(seed), trie, beam_width=rng.randint(1, 5))
        assert decoded.id in entries

    for seed in range(200):
        entries = sorted(
            {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 10))
            }
        )
        trie = build_trie(entries)
        scorer = hash_scorer(10_000 + seed)
        assert constrained_beam_decode(scorer, trie, beam_width=1).id == greedy_decode(scorer, trie)

    passed(5, "decode output in trie on 500 instances; beam width 1 equals greedy on 200")


def test_acceptance_06_networked_perfection_fixture() -> None:
    corpus = parse_conll(PERFECTION_CONLL, name="perfection")
    policy = CandidatePolicy(
        CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(FIXTURE_DICT_TSV)
    )
    pipeline = AnnotationPipeline(lambda text: link_prior_argmax(text, policy), name="prior")
    config = RunConfig()

    service = serve(pipeline)
    service.start_background()
    try:
        with closing(HttpAnnotator(service.endpoint)) as annotator:
            networked = run_benchmark(corpus, annotator, config)
    finally:
        service.stop()
    local = run_benchmark(corpus, InProcessAnnotator(pipeline), config)

    assert networked.micro_f1 == 1.0
    assert networked.micro_precision == 1.0
    assert networked.micro_recall == 1.0
    assert networked.without_runtime() == local.without_runtime()
    assert networked.runtime_ms >= 0 and local.runtime_ms >= 0
    passed(6, "loopback run scores micro-F1 1.000 and matches the in-process report field-for-field")


def test_acceptance_07_candidate_ablation(tmp_path: Path) -> None:
    corpus_path = tmp_path / "ambiguous.conll"
    corpus_path.write_bytes(FIXTURE_CONLL)
    dict_path = tmp_path / "aliases.tsv"
    dict_path.write_text(FIXTURE_DICT_TSV)
    out = tmp_path / "out"

    rc = cli_main(
        ["ablate", "--corpus", str(corpus_path), "--dict-path", str(dict_path), "--out", str(out)]
    )
    assert rc == 0

    def metrics(mode: str) -> dict[str, float]:
        header, row = (out / mode / "report.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        return {k: float(v) for k, v in cells.items() if k != "dataset"}

    dict_m, full_m, empty_m = metrics("dict"), metrics("full"), metrics("empty")
    assert dict_m["f1"] > full_m["f1"]
    assert empty_m["recall"] == 0.0
    assert full_m["inc_entity"] > dict_m["inc_entity"]

    ratio_lines = (out / RATIO_FILE).read_text().splitlines()
    assert ratio_lines[0].split("\t") == ["run", "over", "under", "inc_entity", "inc_mention"]
    assert [line.split("\t")[0] for line in ratio_lines[1:]] == ["dict", "full", "empty"]
    delta_lines = (out / DELTA_FILE).read_text().splitlines()
    assert delta_lines[0].split("\t") == ["run", "precision_delta_pp", "recall_delta_pp"]
    assert [line.split("\t")[0] for line in delta_lines[1:]] == ["full", "empty"]
    passed(
        7,
        "dictionary F1 beats full-vocabulary F1, empty recall is 0, ratio and "
        "delta files written, incorrect-entity ratio rises under full vocabulary",
    )


def test_acceptance_08_uniform_prior_vocabulary() -> None:
    lines = [f"ENT_{i:05d}" for i in range(5597)] + ["--NME--"]
    vocabulary = load_vocabulary("\n".join(lines) + "\n")
    assert len(vocabulary) == 5598
    policy = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=vocabulary)
    for mention in ("Japan", "completely unseen string", ""):
        candidate_set = candidates_for(mention, policy)
        assert len(candidate_set) == 5597
        assert all(prior == 1.0 / 5597 for _, prior in candidate_set)
        assert all(not entity.is_none for entity, _ in candidate_set)
    passed(8, "5598-entity vocabulary with None yields 5597 candidates, each at prior 1/5597")


class CountingVectors(Mapping):
    """Empty vector table that counts lookups of entity-style keys."""

    def __init__(self) -> None:
        self.entity_lookups = 0

    def __getitem__(self, key: str):
        if key.startswith("ENT_"):
            self.entity_lookups += 1
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


def test_acceptance_09_rerank_degeneracy_and_truncation() -> None:
    dictionary = load_alias_dictionary(FIXTURE_DICT_TSV)
    policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=dictionary)
    table = EmbeddingTable.empty()
    params = CoherenceParams.zeros(table.dimension)
    corpus = parse_conll(FIXTURE_CONLL, name="fixture")
    for document in corpus.documents:
        reranked = link_coherence_rerank(document.text, policy, table, params)
        assert reranked == link_prior_argmax(document.text, policy)

    vocabulary = load_vocabulary("\n".join(f"ENT_{i:05d}" for i in range(5597)) + "\n")
    full_policy = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=vocabulary)
    # every scored window is kept under a uniform full vocabulary, so 30 lookups per kept span;
    # "a b c d e f g" has 25 windows and keeps "a b c d e" and "f g"
    for text, kept in (("m", 1), ("a b c", 1), ("a b c d e f g", 2)):
        counting = CountingVectors()
        counting_table = EmbeddingTable(dimension=1, vectors=counting)
        result = link_coherence_rerank(text, full_policy, counting_table, params, top_p=30)
        assert len(result) == kept
        assert counting.entity_lookups == 30 * len(result)
    passed(9, "zero-signal rerank equals prior argmax; top_p=30 scores exactly 30 candidates per kept span")


def test_acceptance_10_wall_time_and_determinism() -> None:
    corpus = parse_conll(FIXTURE_CONLL, name="fixture")
    policy = CandidatePolicy(
        CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(FIXTURE_DICT_TSV)
    )
    pipeline = AnnotationPipeline(lambda text: link_prior_argmax(text, policy), name="prior")
    config = RunConfig()
    first = run_benchmark(corpus, InProcessAnnotator(pipeline), config)
    second = run_benchmark(corpus, InProcessAnnotator(pipeline), config)
    assert first.without_runtime() == second.without_runtime()

    rng_a, rng_b = random.Random(99), random.Random(99)
    trie = build_trie([f"E{i}" for i in range(50)])
    for _ in range(20):
        assert constrained_beam_decode(
            hash_scorer(rng_a.randint(0, 10**6)), trie, beam_width=3
        ) == constrained_beam_decode(hash_scorer(rng_b.randint(0, 10**6)), trie, beam_width=3)

    elapsed = time.perf_counter() - SESSION_START
    assert elapsed < 180.0
    passed(10, f"suite wall time {elapsed:.1f}s (< 180s); repeated seeded runs byte-identical")
