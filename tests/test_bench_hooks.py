"""The benchmark's tracer hooks still find every layer they time.

bench/spans.py wraps linkeval functions at the names their callers look
them up by. If a refactor moves one of those lookups, the wrap still
installs but the layer's per-layer metric silently reads 0; this test
turns that into a failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURE_CONLL, FIXTURE_DICT_TSV
from linkeval import adapters, cli, linkers, parse_conll, reports, runner, service
from linkeval.cli import build_pipeline, cli_main, load_resources
from linkeval.runner import RunConfig

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

PREDICTIONS_TSV = "a1\t0\t5\tJAPAN_NT\na3\t11\t16\tCHINA_NT\n"

TRACED_SPANS = {
    "runner.run_benchmark",
    "conll.parse_conll",
    "candidates.load_alias_dictionary",
    "candidates.load_vocabulary",
    "cli.load_predictions",
    "linkers.link_prior_argmax",
    "linkers.enumerate_token_windows",
    "reports.emit_report",
    "reports.write_ratio_file",
    "reports.write_delta_file",
    "scoring.match_annotations",
    "runner.validate_triples",
    "runner.encode_request",
    "runner.decode_response",
    "adapters.tokenize",
    "adapters.split_document",
    "adapters.merge_segment_annotations",
    "service.decode_request",
    "service.encode_response",
    "service.annotate_triples",
}

TRACED_COUNTS = {
    "candidates.candidates_for.calls",
    "candidates.candidates_for.returned",
    "candidates.candidates_for.hits",
    "linkers.spans",
    "linkers.kept",
    "adapters.segments",
    "scoring.gold_x_pred",
    "service.requests",
    "service.connections",
}


def load_spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked_state() -> dict:
    state = {}
    for module in (adapters, cli, linkers, reports, runner, service):
        state.update({(module.__name__, name): value for name, value in vars(module).items()})
    state["annotate_triples"] = service.AnnotationPipeline.annotate_triples
    state["process_request"] = service.AnnotatorService.process_request
    state["split_defaults"] = adapters.split_document.__defaults__
    for linker in (linkers.link_prior_argmax, linkers.link_coherence_rerank, linkers.link_token_merge):
        state[linker.__name__, "tokenizer"] = linker.__kwdefaults__["tokenizer"]
    return state


def test_install_traces_every_layer_and_uninstall_restores(tmp_path: Path) -> None:
    corpus = tmp_path / "fixture.conll"
    corpus.write_bytes(FIXTURE_CONLL)
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(FIXTURE_DICT_TSV)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("JAPAN_NT\nSYRIA_NT\nCHINA_NT\nASIAN_CUP\n")
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text(PREDICTIONS_TSV)
    base = ["--corpus", str(corpus), "--dict-path", str(aliases), "--vocab-path", str(vocab)]

    spans = load_spans_module()
    before = hooked_state()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert cli_main(["run", *base, "--out", str(tmp_path / "run")]) == 0
        assert cli_main(["ablate", *base, "--out", str(tmp_path / "ablate")]) == 0
        assert cli_main(["score", *base, "--predictions", str(predictions), "--out", str(tmp_path / "score")]) == 0
        config = RunConfig(dict_path=str(aliases))
        server = service.serve(build_pipeline(config, load_resources(config)))
        server.start_background()
        try:
            assert cli_main(["run", *base, "--endpoint", server.endpoint, "--out", str(tmp_path / "http")]) == 0
        finally:
            server.stop()
    finally:
        uninstall()
    recorded, counts = tracer.drain()

    assert TRACED_SPANS - {name for _, name, *_ in recorded} == set()
    assert {name for name in TRACED_COUNTS if counts.get(name, 0) <= 0} == set()
    assert hooked_state() == before


def test_in_process_run_tokenizes_each_document_once(tmp_path: Path) -> None:
    corpus = tmp_path / "fixture.conll"
    corpus.write_bytes(FIXTURE_CONLL)
    aliases = tmp_path / "aliases.tsv"
    aliases.write_text(FIXTURE_DICT_TSV)
    documents = len(parse_conll(FIXTURE_CONLL).documents)

    spans = load_spans_module()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert cli_main(["run", "--corpus", str(corpus), "--dict-path", str(aliases), "--out", str(tmp_path / "run")]) == 0
    finally:
        uninstall()
    recorded, counts = tracer.drain()

    assert documents > 1
    assert [name for _, name, *_ in recorded].count("adapters.tokenize") == documents
    assert counts.get("linkers.spans", 0) > 0
