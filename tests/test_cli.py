from __future__ import annotations

import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from conftest import FIXTURE_CONLL, FIXTURE_DICT_TSV
from linkeval import (
    AnnotationPipeline,
    CandidateMode,
    CandidatePolicy,
    InProcessAnnotator,
    RunConfig,
    link_coherence_rerank,
    link_prior_argmax,
    load_alias_dictionary,
    parse_conll,
    run_benchmark,
    serve,
)
from linkeval import cli
from linkeval.cli import _parse_endpoint, build_parser, build_pipeline, cli_main, load_predictions, load_resources
from linkeval.errors import MalformedLine, UsageError
from linkeval.reports import DELTA_FILE, RATIO_FILE, REPORT_CSV, SUMMARY_TXT

PERFECT_PREDICTIONS_TSV = (
    "# doc_id\tbegin\tend\tentity\n"
    "a1\t0\t5\tJAPAN_NT\n"
    "a2\t0\t5\tSYRIA_NT\n"
    "a3\t0\t5\tJAPAN_NT\n"
    "a3\t11\t16\tSYRIA_NT\n"
    "a3\t20\t29\tASIAN_CUP\n"
    "a4\t0\t5\tCHINA_NT\n"
)


@pytest.fixture()
def workspace(tmp_path: Path) -> dict[str, Path]:
    corpus = tmp_path / "fixture.conll"
    corpus.write_bytes(FIXTURE_CONLL)
    dictionary = tmp_path / "aliases.tsv"
    dictionary.write_text(FIXTURE_DICT_TSV)
    predictions = tmp_path / "predictions.tsv"
    predictions.write_text(PERFECT_PREDICTIONS_TSV)
    return {
        "corpus": corpus,
        "dict": dictionary,
        "predictions": predictions,
        "out": tmp_path / "out",
    }


def read_csv_row(out_dir: Path) -> dict[str, str]:
    header, row = (out_dir / REPORT_CSV).read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_run_in_process(workspace, capsys) -> None:
    rc = cli_main(
        [
            "run",
            "--corpus",
            str(workspace["corpus"]),
            "--dict-path",
            str(workspace["dict"]),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "dataset=fixture P=1.0000 R=1.0000 F1=1.0000" in captured
    row = read_csv_row(workspace["out"])
    assert row["dataset"] == "fixture"
    assert row["f1"] == "1.0000"
    assert (workspace["out"] / SUMMARY_TXT).exists()
    assert (workspace["out"] / RATIO_FILE).exists()


def test_run_against_live_endpoint_matches_in_process(workspace, capsys) -> None:
    policy = CandidatePolicy(
        CandidateMode.DICTIONARY, dictionary=load_alias_dictionary(FIXTURE_DICT_TSV)
    )
    service = serve(AnnotationPipeline(lambda t: link_prior_argmax(t, policy), name="prior"))
    service.start_background()
    try:
        local_out = workspace["out"] / "local"
        remote_out = workspace["out"] / "remote"
        base = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
        assert cli_main(base + ["--out", str(local_out)]) == 0
        assert cli_main(base + ["--out", str(remote_out), "--endpoint", service.endpoint]) == 0
    finally:
        service.stop()
    assert read_csv_row(remote_out) == read_csv_row(local_out)


def test_run_endpoint_takes_what_serve_takes(workspace, capsys) -> None:
    config = RunConfig(dict_path=str(workspace["dict"]))
    service = serve(build_pipeline(config, load_resources(config)))
    service.start_background()
    host, port = service.server_address[:2]
    base = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    try:
        assert cli_main(base + ["--out", str(workspace["out"] / "url"), "--endpoint", f"http://{host}:{port}"]) == 0
        assert cli_main(base + ["--out", str(workspace["out"] / "bare"), "--endpoint", f"{host}:{port}"]) == 0
    finally:
        service.stop()
    assert read_csv_row(workspace["out"] / "bare") == read_csv_row(workspace["out"] / "url")
    assert read_csv_row(workspace["out"] / "url")["f1"] == "1.0000"
    capsys.readouterr()
    assert cli_main(base + ["--out", str(workspace["out"] / "down"), "--endpoint", "127.0.0.1:9"]) == 1
    assert "error: cannot reach 127.0.0.1:9: " in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["https://127.0.0.1:8400", "127.0.0.1", "127.0.0.1:99999"])
def test_run_bad_endpoint_is_usage_error(workspace, endpoint: str, capsys) -> None:
    argv = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    assert cli_main(argv + ["--out", str(workspace["out"]), "--endpoint", endpoint]) == 2
    assert f"usage error: endpoint must look like host:port or http://host:port, got {endpoint!r}" in capsys.readouterr().err
    assert not workspace["out"].exists()


def test_run_requires_dictionary_for_dict_policy(workspace) -> None:
    rc = cli_main(["run", "--corpus", str(workspace["corpus"]), "--out", str(workspace["out"])])
    assert rc == 2


def test_run_missing_corpus_file_is_runtime_error(workspace) -> None:
    rc = cli_main(
        [
            "run",
            "--corpus",
            str(workspace["corpus"].parent / "nope.conll"),
            "--dict-path",
            str(workspace["dict"]),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 1


def test_run_unreachable_endpoint_is_runtime_error(workspace) -> None:
    rc = cli_main(
        [
            "run",
            "--corpus",
            str(workspace["corpus"]),
            "--dict-path",
            str(workspace["dict"]),
            "--endpoint",
            "http://127.0.0.1:9",
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "corpus, message",
    [
        ("-DOCSTART- (a)\nJapan\tB\tJAPAN_NT\n\tO\n", "line 3: token surface must be non-empty"),
        ("-DOCSTART- (a)\nJapan\tB\t\n", "line 2: entity id must be non-empty with no surrounding whitespace: ''"),
        (
            "-DOCSTART- (a)\nJapan\tB\t JAPAN_NT\n",
            "line 2: entity id must be non-empty with no surrounding whitespace: ' JAPAN_NT'",
        ),
        ("-DOCSTART- (a)\nJapan O\n-DOCSTART- (a)\nSyria O\n", "line 3: duplicate document id 'a'"),
    ],
    ids=["empty-surface", "empty-entity", "padded-entity", "duplicate-id"],
)
def test_run_bad_corpus_line_is_runtime_error(workspace, tmp_path: Path, corpus: str, message: str, capsys) -> None:
    broken = tmp_path / "broken.conll"
    broken.write_text(corpus)
    argv = ["run", "--corpus", str(broken), "--dict-path", str(workspace["dict"]), "--out", str(workspace["out"])]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not workspace["out"].exists()


def test_unknown_subcommand_exits_2(workspace) -> None:
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["frobnicate"])
    assert excinfo.value.code == 2


def test_score_perfect_predictions(workspace, capsys) -> None:
    rc = cli_main(
        [
            "score",
            "--corpus",
            str(workspace["corpus"]),
            "--predictions",
            str(workspace["predictions"]),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 0
    assert read_csv_row(workspace["out"])["f1"] == "1.0000"


def test_score_counts_wrong_entities(workspace, tmp_path: Path) -> None:
    bad = tmp_path / "bad_predictions.tsv"
    bad.write_text(PERFECT_PREDICTIONS_TSV.replace("a1\t0\t5\tJAPAN_NT", "a1\t0\t5\tCHINA_NT"))
    rc = cli_main(
        [
            "score",
            "--corpus",
            str(workspace["corpus"]),
            "--predictions",
            str(bad),
            "--dict-path",
            str(workspace["dict"]),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 0
    row = read_csv_row(workspace["out"])
    assert row["f1"] != "1.0000"
    assert row["inc_entity"] == f"{1 / 6:.4f}"


def test_score_warns_about_unknown_doc_ids(workspace, tmp_path: Path, capsys) -> None:
    extra = tmp_path / "extra.tsv"
    extra.write_text(PERFECT_PREDICTIONS_TSV + "zz\t0\t5\tJAPAN_NT\nzz\t6\t9\tSYRIA_NT\nyy\t0\t2\tCHINA_NT\n")
    base = ["score", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    assert cli_main([*base, "--predictions", str(workspace["predictions"]), "--out", str(tmp_path / "plain")]) == 0
    assert capsys.readouterr().err == ""
    assert cli_main([*base, "--predictions", str(extra), "--out", str(tmp_path / "extra")]) == 0
    assert capsys.readouterr().err == "warning: ignored 3 predictions for 2 doc ids not in the corpus\n"
    for name in (REPORT_CSV, SUMMARY_TXT):
        plain, with_extra = (
            [line for line in (tmp_path / out / name).read_text().splitlines() if not line.startswith("runtime_ms")]
            for out in ("plain", "extra")
        )
        assert with_extra == plain


def test_score_malformed_predictions_is_runtime_error(workspace, tmp_path: Path) -> None:
    broken = tmp_path / "broken.tsv"
    broken.write_text("a1\t0\t5\n")
    rc = cli_main(
        [
            "score",
            "--corpus",
            str(workspace["corpus"]),
            "--predictions",
            str(broken),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 1


def test_score_non_utf8_predictions_is_runtime_error(workspace, tmp_path: Path, capsys) -> None:
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes("a1\t0\t5\tJAPAN_NT\na2\t0\t5\tSYRIA_NT\u00e9\n".encode("latin-1"))
    rc = cli_main(
        ["score", "--corpus", str(workspace["corpus"]), "--predictions", str(latin1), "--out", str(workspace["out"])]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: input is not valid UTF-8")


def test_score_without_resources_contains_invalid_entity_id(workspace, tmp_path: Path) -> None:
    padded = tmp_path / "padded.tsv"
    padded.write_text(PERFECT_PREDICTIONS_TSV.replace("a1\t0\t5\tJAPAN_NT", "a1\t0\t5\t JAPAN_NT"))
    rc = cli_main(
        ["score", "--corpus", str(workspace["corpus"]), "--predictions", str(padded), "--out", str(workspace["out"])]
    )
    assert rc == 0
    summary = (workspace["out"] / SUMMARY_TXT).read_text()
    assert "protocol_violations: 1\n" in summary
    assert "protocol_violation[a1]: entity id must be non-empty with no surrounding whitespace" in summary


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--policy", "full"),
        ("--linker", "coherence"),
        ("--n", "3"),
        ("--max-tokens", "64"),
        ("--top-p", "5"),
        ("--embeddings-path", "missing.tsv"),
    ],
)
def test_run_endpoint_rejects_pipeline_flags(workspace, flag: str, value: str, capsys) -> None:
    argv = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    argv += ["--out", str(workspace["out"]), "--endpoint", "http://127.0.0.1:9"]
    assert cli_main(argv + [flag, value]) == 2
    assert f"usage error: {flag} cannot be used with --endpoint: the service decides them" in capsys.readouterr().err
    assert not workspace["out"].exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("run", "--seed", "0"),
        ("run", "--beam-width", "5"),
        ("ablate", "--seed", "0"),
        ("ablate", "--beam-width", "5"),
        ("ablate", "--policy", "full"),
        ("score", "--seed", "0"),
        ("serve", "--seed", "0"),
        ("serve", "--beam-width", "5"),
    ],
)
def test_removed_flags_exit_2(workspace, command: str, flag: str, value: str) -> None:
    argv = [command, "--dict-path", str(workspace["dict"])]
    if command != "serve":
        argv += ["--corpus", str(workspace["corpus"])]
    if command == "score":
        argv += ["--predictions", str(workspace["predictions"])]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv + [flag, value])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag", ["--parallel", "--max-tokens", "--n", "--top-p"])
def test_non_positive_sizes_are_usage_errors(workspace, flag: str, capsys) -> None:
    argv = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    assert cli_main(argv + ["--out", str(workspace["out"]), flag, "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy, linker", [("dict", "prior_argmax"), ("full", "coherence"), ("empty", "token_merge")]
)
def test_cli_run_matches_library_pipeline(workspace, monkeypatch, policy: str, linker: str) -> None:
    reports = []

    def recording_run_benchmark(*args, **kwargs):
        reports.append(run_benchmark(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_benchmark", recording_run_benchmark)
    argv = ["run", "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    assert cli_main(argv + ["--policy", policy, "--linker", linker, "--out", str(workspace["out"])]) == 0

    config = RunConfig(policy=policy, linker=linker, dict_path=str(workspace["dict"]))
    resources = load_resources(config)
    corpus = parse_conll(FIXTURE_CONLL, name="fixture")
    library = run_benchmark(
        corpus, InProcessAnnotator(build_pipeline(config, resources)), config, vocabulary=resources.inkb
    )
    assert [r.without_runtime() for r in reports] == [library.without_runtime()]


def test_coherence_without_embeddings_builds_the_prior_linker(workspace, tmp_path: Path) -> None:
    # with no vectors every coherence score is the prior, so the rerank is skipped
    vectors = tmp_path / "vectors.tsv"
    vectors.write_text("Japan\t0.5 1.0\nSyria\t1.0 0.0\n")
    plain = RunConfig(policy="full", linker="coherence", dict_path=str(workspace["dict"]))
    embedded = RunConfig(
        policy="full", linker="coherence", dict_path=str(workspace["dict"]), embeddings_path=str(vectors)
    )
    without = build_pipeline(plain, load_resources(plain))
    with_vectors = build_pipeline(embedded, load_resources(embedded))
    assert (without.name, without.linker.func) == ("coherence", link_prior_argmax)
    assert (with_vectors.name, with_vectors.linker.func) == ("coherence", link_coherence_rerank)
    for document in parse_conll(FIXTURE_CONLL, name="fixture").documents:
        assert without.annotate_triples(document.text) == with_vectors.annotate_triples(document.text)


def test_ablate_orders_policies(workspace, capsys) -> None:
    rc = cli_main(
        [
            "ablate",
            "--corpus",
            str(workspace["corpus"]),
            "--dict-path",
            str(workspace["dict"]),
            "--out",
            str(workspace["out"]),
        ]
    )
    assert rc == 0
    out = workspace["out"]
    for mode in ("dict", "full", "empty"):
        assert (out / mode / REPORT_CSV).exists()
        assert (out / mode / SUMMARY_TXT).exists()

    dict_row = read_csv_row(out / "dict")
    full_row = read_csv_row(out / "full")
    empty_row = read_csv_row(out / "empty")
    assert float(dict_row["f1"]) > float(full_row["f1"])
    assert float(empty_row["recall"]) == 0.0
    assert float(full_row["inc_entity"]) > float(dict_row["inc_entity"])

    ratio_lines = (out / RATIO_FILE).read_text().splitlines()
    assert [line.split("\t")[0] for line in ratio_lines] == ["run", "dict", "full", "empty"]
    assert ratio_lines[1] == "dict\t0.0000\t0.0000\t0.0000\t0.0000"
    assert ratio_lines[2] == "full\t0.5000\t0.0000\t0.3333\t0.0000"
    assert ratio_lines[3] == "empty\t0.0000\t1.0000\t0.0000\t0.0000"

    delta_lines = (out / DELTA_FILE).read_text().splitlines()
    assert delta_lines[1] == "full\t-100.00\t-100.00"
    assert delta_lines[2] == "empty\t+0.00\t-100.00"


def test_ablate_requires_dictionary(workspace) -> None:
    rc = cli_main(["ablate", "--corpus", str(workspace["corpus"]), "--out", str(workspace["out"])])
    assert rc == 2


@pytest.mark.parametrize("vocabulary", ["", "--NME--\n"], ids=["empty", "nme-only"])
@pytest.mark.parametrize("command", [["run", "--policy", "full"], ["ablate"]], ids=["run", "ablate"])
def test_vocabulary_without_linkable_entity_is_runtime_error(
    workspace, tmp_path: Path, command: list[str], vocabulary: str, capsys
) -> None:
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(vocabulary)
    argv = [*command, "--corpus", str(workspace["corpus"]), "--dict-path", str(workspace["dict"])]
    assert cli_main(argv + ["--vocab-path", str(vocab), "--out", str(workspace["out"])]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: vocabulary contains no linkable entities\n"
    assert captured.out == ""
    assert not workspace["out"].exists()


def test_serve_subcommand_end_to_end(workspace) -> None:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "linkeval",
            "serve",
            "--endpoint",
            "127.0.0.1:0",
            "--dict-path",
            str(workspace["dict"]),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("serving prior_argmax on http://127.0.0.1:")
        endpoint = banner.rsplit(" ", 1)[-1]
        with urllib.request.urlopen(endpoint + "/health", timeout=10) as response:
            health = json.loads(response.read())
        assert health["linker"] == "prior_argmax"
        body = json.dumps({"text": "Japan beat Syria"}).encode()
        request = urllib.request.Request(
            endpoint + "/annotate", data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["annotations"] == [
            {"begin": 0, "end": 5, "entity": "JAPAN_NT"},
            {"begin": 11, "end": 16, "entity": "SYRIA_NT"},
        ]
    finally:
        process.terminate()
        process.communicate(timeout=10)  # waits, then closes the child's pipes


def test_load_predictions_parses_and_groups() -> None:
    parsed = load_predictions("# comment\n\na1\t0\t5\tE1\na1\t7\t9\tE2\nb2\t3\t4\tE1\n")
    assert parsed == {"a1": [(0, 5, "E1"), (7, 9, "E2")], "b2": [(3, 4, "E1")]}


@pytest.mark.parametrize(
    "line",
    ["a1\t0\t5", "a1\t0\t5\tE1\textra", "a1\tzero\t5\tE1", "a1\t0\tfive\tE1", "a1\t0\t5\t"],
)
def test_load_predictions_rejects_malformed(line: str) -> None:
    with pytest.raises(MalformedLine):
        load_predictions(line + "\n")


def test_parse_endpoint() -> None:
    assert _parse_endpoint("127.0.0.1:8400") == ("127.0.0.1", 8400)
    assert _parse_endpoint("localhost:0") == ("localhost", 0)
    assert _parse_endpoint("http://127.0.0.1:8400") == ("127.0.0.1", 8400)
    assert _parse_endpoint("http://127.0.0.1:8400/") == ("127.0.0.1", 8400)
    for bad in ("nohost", ":123", "host:abc", "host:", "https://host:1", "http://host/x:1", "host:65536", "host:\u00b2"):
        with pytest.raises(UsageError):
            _parse_endpoint(bad)
