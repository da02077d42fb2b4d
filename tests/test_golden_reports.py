"""Report files on the benchmark's seed-1 inputs, pinned by digest.

A refactor must leave every report byte-identical apart from its
``runtime_ms:`` line. This test generates the run-dict, ablate-full and
score-dense inputs of ``bench/gen.py`` (loaded read-only from its file),
runs each command through ``cli_main``, and compares the SHA-256 of every
file the command writes, ``runtime_ms:`` line removed, with the digests
recorded below. ``run`` and ``ablate`` run with the prior_argmax and the
token_merge linker. ``run`` also runs with ``--max-tokens 16``, which cuts
segments inside whitespace chunks, and with ``--max-tokens 3`` under each
of the three linkers on the ablate-full inputs, the densest cutting pinned
here. The coherence run reads an embedding table this test writes from the
vocabulary and corpus words, so it runs the rerank with a non-zero
similarity term; the 19 picks that term changes are wrong either way, so
its reports equal prior_argmax's. A digest changes only with the scorer's
numbers or the report format, and a change to either is a deliberate one.
The same table feeds ``ablate --linker coherence`` at the default
``--top-p``, whose dict-policy reports differ from prior_argmax's, and
``run --policy full --linker coherence --top-p 5200`` on a corpus cut to
the first two ablate-full documents, which re-ranks all 5 200 candidates
of every window it scores. These reports carry aggregate counts only, so
tests/test_linkers.py checks the rerank's own picks against an oracle.
``run --policy full`` and ``ablate`` also run without ``--vocab-path`` on
the ablate-full inputs, so the full policy's candidates and the in-KB set
come from the alias dictionary's own vocabulary.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from linkeval.cli import cli_main

GEN_PY = Path(__file__).resolve().parents[1] / "bench" / "gen.py"

# input directory (a bench/gen.py workload, or ablate-full cut to two documents) -> command line,
# "{name}" for an input file
COMMANDS = {
    "run": ("run-dict", ["run", "--corpus", "{corpus}", "--dict-path", "{aliases}", "--policy", "dict",
                         "--linker", "prior_argmax", "--max-tokens", "512", "--parallel", "1"]),
    "ablate": ("ablate-full", ["ablate", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                               "--vocab-path", "{vocab}", "--linker", "prior_argmax"]),
    "score-vocab": ("score-dense", ["score", "--corpus", "{corpus}", "--predictions", "{predictions}",
                                    "--vocab-path", "{vocab}"]),
    "score": ("score-dense", ["score", "--corpus", "{corpus}", "--predictions", "{predictions}"]),
    "run-token-merge": ("run-dict", ["run", "--corpus", "{corpus}", "--dict-path", "{aliases}", "--policy", "dict",
                                     "--linker", "token_merge", "--max-tokens", "512", "--parallel", "1"]),
    "ablate-token-merge": ("ablate-full", ["ablate", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                                           "--vocab-path", "{vocab}", "--linker", "token_merge"]),
    # 354 of its segments have an edge inside a whitespace chunk
    "run-max-tokens-16": ("run-dict", ["run", "--corpus", "{corpus}", "--dict-path", "{aliases}", "--policy", "dict",
                                       "--linker", "prior_argmax", "--max-tokens", "16", "--parallel", "1"]),
    # no --vocab-path: the full policy's candidates and the in-KB set are the dictionary's vocabulary
    "run-full-dict-vocabulary": ("ablate-full", ["run", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                                                 "--policy", "full", "--linker", "prior_argmax"]),
    "ablate-dict-vocabulary": ("ablate-full", ["ablate", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                                               "--linker", "prior_argmax"]),
    **{
        f"run-max-tokens-3-{linker}": ("ablate-full", ["run", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                                                       "--vocab-path", "{vocab}", "--embeddings-path", "{embeddings}",
                                                       "--policy", "dict", "--linker", linker, "--max-tokens", "3"])
        for linker in ("prior_argmax", "coherence", "token_merge")
    },
    "ablate-coherence": ("ablate-full", ["ablate", "--corpus", "{corpus}", "--dict-path", "{aliases}",
                                         "--vocab-path", "{vocab}", "--embeddings-path", "{embeddings}",
                                         "--linker", "coherence"]),
    # every candidate of every scored window is re-ranked, so two documents keep it short
    "run-full-coherence-top-p-5200": ("ablate-full-two-docs", ["run", "--corpus", "{corpus}", "--dict-path",
                                                                "{aliases}", "--vocab-path", "{vocab}",
                                                                "--embeddings-path", "{embeddings}", "--policy",
                                                                "full", "--linker", "coherence", "--top-p", "5200"]),
}

GOLDEN = {
    "ablate": {
        "dict/error_ratios.tsv": "d62cd60fac0f6ce2f3b398931ef24c1247d2ea3d2841a6871b889c0b74fcc449",
        "dict/report.csv": "46d6a7b6f98cbfc37372e341790aa730f07b032264d035ca68eee9a6534171a7",
        "dict/summary.txt": "1044b9408780d5556a2486737df3b19bc0c2d92b07f8d0486dc4cf93f4acd834",
        "empty/error_ratios.tsv": "11fbbf32ea7c0697c751917f556133b16f1f5369c5395fcab7ab4c3945ea2eee",
        "empty/report.csv": "4e5f47dc70513556fb7d9cf84b1b1af724dbcb0a0ea3f709fd96c7c713ea8cd2",
        "empty/summary.txt": "d39cb9d15745df241d97e0d32aa8ea8c20438bf7d8048c3ed7efe50d23363b2a",
        "error_ratios.tsv": "18ae91ae16ce23913d73b9e610a9d497efc1995880a165eeffc112a8c046ebd4",
        "full/error_ratios.tsv": "3e02d57e39eb9aba3e858e9b74713e6bc1c5d969173f69e16dfd91a75597faa9",
        "full/report.csv": "5b329b4cfe996eaed6317c134f675db4b09619c666ad95eb9a1c884aa0c77e46",
        "full/summary.txt": "0eb2ae04341c243074bcf31c7ae7f66d05d756a06209904a324a378761785fd2",
        "pr_delta.tsv": "09e557b5dde56672b8427485ff71f18df0e519d758ef0532e8020225ff844e41",
    },
    "ablate-coherence": {
        "dict/error_ratios.tsv": "23002d1d57c8538ad618335d223b5ded019a0200ac9e559ae4e9d6fb658f644a",
        "dict/report.csv": "a8ceb836f0c5922a7ccc5b3b4cc3e001c248c79e9492f30c7f6e6ca4369ea66d",
        "dict/summary.txt": "a3611006b47ec5e84244f5ef6f5051f8726ff17c05059217ef733192effe5c3e",
        "empty/error_ratios.tsv": "11fbbf32ea7c0697c751917f556133b16f1f5369c5395fcab7ab4c3945ea2eee",
        "empty/report.csv": "4e5f47dc70513556fb7d9cf84b1b1af724dbcb0a0ea3f709fd96c7c713ea8cd2",
        "empty/summary.txt": "d39cb9d15745df241d97e0d32aa8ea8c20438bf7d8048c3ed7efe50d23363b2a",
        "error_ratios.tsv": "490384ad5047fce114df85d46437529603e0b72a152558d549a396495d246595",
        "full/error_ratios.tsv": "3e02d57e39eb9aba3e858e9b74713e6bc1c5d969173f69e16dfd91a75597faa9",
        "full/report.csv": "5b329b4cfe996eaed6317c134f675db4b09619c666ad95eb9a1c884aa0c77e46",
        "full/summary.txt": "0eb2ae04341c243074bcf31c7ae7f66d05d756a06209904a324a378761785fd2",
        "pr_delta.tsv": "b51dba8cb16276e9a20b7c393c5f3e261a9edfad0190273564b51e5f3d69af7f",
    },
    "ablate-dict-vocabulary": {
        "dict/error_ratios.tsv": "d62cd60fac0f6ce2f3b398931ef24c1247d2ea3d2841a6871b889c0b74fcc449",
        "dict/report.csv": "46d6a7b6f98cbfc37372e341790aa730f07b032264d035ca68eee9a6534171a7",
        "dict/summary.txt": "1044b9408780d5556a2486737df3b19bc0c2d92b07f8d0486dc4cf93f4acd834",
        "empty/error_ratios.tsv": "11fbbf32ea7c0697c751917f556133b16f1f5369c5395fcab7ab4c3945ea2eee",
        "empty/report.csv": "4e5f47dc70513556fb7d9cf84b1b1af724dbcb0a0ea3f709fd96c7c713ea8cd2",
        "empty/summary.txt": "d39cb9d15745df241d97e0d32aa8ea8c20438bf7d8048c3ed7efe50d23363b2a",
        "error_ratios.tsv": "18ae91ae16ce23913d73b9e610a9d497efc1995880a165eeffc112a8c046ebd4",
        "full/error_ratios.tsv": "3e02d57e39eb9aba3e858e9b74713e6bc1c5d969173f69e16dfd91a75597faa9",
        "full/report.csv": "5b329b4cfe996eaed6317c134f675db4b09619c666ad95eb9a1c884aa0c77e46",
        "full/summary.txt": "0eb2ae04341c243074bcf31c7ae7f66d05d756a06209904a324a378761785fd2",
        "pr_delta.tsv": "09e557b5dde56672b8427485ff71f18df0e519d758ef0532e8020225ff844e41",
    },
    "ablate-token-merge": {
        "dict/error_ratios.tsv": "c9db66c79a1e8383ddaed090b4a9156d8b01c30e2e40145eec4004f7ddb4b19f",
        "dict/report.csv": "d108feb08d37144166ad7a66d04aa3a66d41b27fde094800dcbfd6d485d08c71",
        "dict/summary.txt": "a3564c4ce438cab4f56680e62a3d221f382c874eb39ee2702aba0db4c6aa9eb2",
        "empty/error_ratios.tsv": "11fbbf32ea7c0697c751917f556133b16f1f5369c5395fcab7ab4c3945ea2eee",
        "empty/report.csv": "4e5f47dc70513556fb7d9cf84b1b1af724dbcb0a0ea3f709fd96c7c713ea8cd2",
        "empty/summary.txt": "d39cb9d15745df241d97e0d32aa8ea8c20438bf7d8048c3ed7efe50d23363b2a",
        "error_ratios.tsv": "4bb53dc5f91f575a98cffcd45c3682dbc09f5755bdf9b6b49cf71cd1f68c55c0",
        "full/error_ratios.tsv": "c147ad2d6ef474554930cc3afec16452a0e12934180d7e0dc1f0afdae5fb6e4e",
        "full/report.csv": "c4e53ab0105f822b75b4fccb329887f7a836e92e9e3e1e6512528a1c63b27fbc",
        "full/summary.txt": "12e830c193dc6ed998adce293473ee8c79bc092c6f2fb954733cc2dd49515da6",
        "pr_delta.tsv": "1f5a80b4a80a8076a2aaf95c6e27389bbb2cd5af15fa7a950759a03722e4933e",
    },
    "run": {
        "error_ratios.tsv": "b6bfd4641ae36f070dbd221b32d47b32afe2e3b7cd23c031f56ef760e131ac66",
        "report.csv": "43f31d75c76b723b7859c4d18fc64dab9d6944ba1316003bba1d7985f2ee420b",
        "summary.txt": "d488f4bcaaa22dd71a8ac35c90ee6e304fc321638f23afbaa995ad6f35752593",
    },
    "run-full-coherence-top-p-5200": {
        "error_ratios.tsv": "fcdab006011edf8a8daaca35bae293911e6b2104d05c2725bec0c8fdbbb3529d",
        "report.csv": "bc1b1233241ff6f6e146e79e8cbd8bb993f31b23993ffe6e1087d3345aa65348",
        "summary.txt": "b095f8bf6931fae0f052e94cd7491bc1722826283230659aee48f1e7e8608f78",
    },
    "run-full-dict-vocabulary": {
        "error_ratios.tsv": "3b710b77b0903bd6edc1a16c0219b077cf4e6861e15d061d849e95a81c0bb083",
        "report.csv": "5b329b4cfe996eaed6317c134f675db4b09619c666ad95eb9a1c884aa0c77e46",
        "summary.txt": "0eb2ae04341c243074bcf31c7ae7f66d05d756a06209904a324a378761785fd2",
    },
    "run-max-tokens-16": {
        "error_ratios.tsv": "c10f6e9dd013257fc58e32b46ed1a0b065b6661f196c96881e1e6f0a4d9a7c9f",
        "report.csv": "5be3227ff22ec4c69a1c3db355233674f8e32cfe1cd62fe2225fd9e784679981",
        "summary.txt": "7f69f36d1dee5ea137340a44dfff70559050b6f3e64a1a4b6635444e154631c5",
    },
    "run-max-tokens-3-coherence": {
        "error_ratios.tsv": "686e42ea6112ac5301f7cda532a51afecfe565634c184bcbe39811618eba85a4",
        "report.csv": "d9509a3f78d279a0ec392c84a36aa73c82bfbc06f61de180de21422aaf3f4be8",
        "summary.txt": "73f676b572ef153c34b12a6b42d3d4c6ee9e31cc1753ca5187e316b77e473ce3",
    },
    "run-max-tokens-3-prior_argmax": {
        "error_ratios.tsv": "686e42ea6112ac5301f7cda532a51afecfe565634c184bcbe39811618eba85a4",
        "report.csv": "d9509a3f78d279a0ec392c84a36aa73c82bfbc06f61de180de21422aaf3f4be8",
        "summary.txt": "73f676b572ef153c34b12a6b42d3d4c6ee9e31cc1753ca5187e316b77e473ce3",
    },
    "run-max-tokens-3-token_merge": {
        "error_ratios.tsv": "d6ed70dfd11d43059771e6ef245c30c200ae8ffd48f78485ef818270bd20f12a",
        "report.csv": "d108feb08d37144166ad7a66d04aa3a66d41b27fde094800dcbfd6d485d08c71",
        "summary.txt": "a3564c4ce438cab4f56680e62a3d221f382c874eb39ee2702aba0db4c6aa9eb2",
    },
    "run-token-merge": {
        "error_ratios.tsv": "ef084305836fdd399d12871041aa3f3680247f1aaea352bd749bf2620db45f1d",
        "report.csv": "b98490fb61258a96967572181834f4536ad62a321d2fbb7739752a6f302b2f04",
        "summary.txt": "b14dc2bd71f476f2e343e58b81cdaeb784c594f881624bebebf75cf3ab329b00",
    },
    "score": {
        "error_ratios.tsv": "122b639711d7827a08f710eb87703ef9d96a0e11836d869126772f2791dd83c9",
        "report.csv": "c3df67a4c2c1ea03dd628d893f27e0db31f37768b77822e374ee4a62a7c69926",
        "summary.txt": "6d9ce9f0ea4c126ca2f4f8ad18b5f54882ef672711b88e3d0532e590c06e1539",
    },
    "score-vocab": {
        "error_ratios.tsv": "122b639711d7827a08f710eb87703ef9d96a0e11836d869126772f2791dd83c9",
        "report.csv": "c3df67a4c2c1ea03dd628d893f27e0db31f37768b77822e374ee4a62a7c69926",
        "summary.txt": "6d9ce9f0ea4c126ca2f4f8ad18b5f54882ef672711b88e3d0532e590c06e1539",
    },
}


def load_gen_module():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def write_embeddings(directory: Path) -> None:
    """embeddings.tsv: a 2-d vector, drawn from its key's SHA-256, per vocabulary entity and corpus word."""
    keys = (directory / "vocab.txt").read_text(encoding="utf-8").split()
    for line in (directory / "corpus.conll").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("-DOCSTART-"):
            keys.append(line.split("\t")[0])
    lines = []
    for key in dict.fromkeys(keys):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        lines.append(f"{key}\t{digest[0] / 128 - 1:.3f} {digest[1] / 128 - 1:.3f}")
    (directory / "embeddings.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    gen = load_gen_module()
    root = tmp_path_factory.mktemp("golden")
    dirs = {}
    for workload in sorted({workload for workload, _ in COMMANDS.values()} & set(gen.SHAPES)):
        dirs[workload] = root / workload
        dirs[workload].mkdir()
        gen.generate(gen.SHAPES[workload], 1, dirs[workload])
    write_embeddings(dirs["ablate-full"])
    dirs["ablate-full-two-docs"] = two_docs = root / "ablate-full-two-docs"
    two_docs.mkdir()
    for name in ("aliases.tsv", "vocab.txt", "embeddings.tsv"):
        shutil.copyfile(dirs["ablate-full"] / name, two_docs / name)
    lines = (dirs["ablate-full"] / "corpus.conll").read_text(encoding="utf-8").splitlines(keepends=True)
    third = [i for i, line in enumerate(lines) if line.startswith("-DOCSTART-")][2]
    (two_docs / "corpus.conll").write_text("".join(lines[:third]), encoding="utf-8")
    return dirs


def report_digests(out: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines = path.read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.startswith(b"runtime_ms:"))
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(kept).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reports_match_recorded_digests(inputs, tmp_path: Path, name: str, capsys) -> None:
    workload, argv = COMMANDS[name]
    files = {stem: str(inputs[workload] / f"{stem}{suffix}") for stem, suffix in
             (("corpus", ".conll"), ("aliases", ".tsv"), ("vocab", ".txt"), ("predictions", ".tsv"),
              ("embeddings", ".tsv"))}
    out = tmp_path / "out"
    assert cli_main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == 0
    assert report_digests(out) == GOLDEN[name]
