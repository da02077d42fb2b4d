"""Command line interface.

Subcommands:

* serve: bind the annotate service and block.
* run: benchmark a corpus against an in-process linker or a remote endpoint.
* ablate: run the same corpus under the dictionary, full-vocabulary and
  empty candidate policies and emit comparison tables.
* score: score a prediction file offline against a gold corpus.

Each pipeline flag sets the RunConfig field of the same name. A command
builds one RunConfig, loads the files it names once, and hands both to
build_pipeline, which library callers use as well.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .candidates import (
    AliasDictionary,
    CandidateMode,
    CandidatePolicy,
    load_alias_dictionary,
    load_vocabulary,
)
from .conll import Corpus, parse_conll
from .errors import LinkEvalError, MalformedLine, UsageError
from .linkers import (
    CoherenceParams,
    EmbeddingTable,
    link_coherence_rerank,
    link_prior_argmax,
    link_token_merge,
    load_embeddings,
)
from .model import EntityId, data_lines
from .reports import DELTA_FILE, RATIO_FILE, emit_report, write_delta_file, write_ratio_file
from .runner import (
    LINKER_CHOICES,
    POLICY_CHOICES,
    HttpAnnotator,
    InProcessAnnotator,
    PredictionFileAnnotator,
    RunConfig,
    parse_endpoint,
    run_benchmark,
)
from .scoring import pr_delta
from .service import AnnotationPipeline, RawTriple, serve

_CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(RunConfig))


def _add_resource_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dict-path", help="alias dictionary TSV (mention<TAB>entity<TAB>prior)")
    parser.add_argument("--vocab-path", help="entity vocabulary file, one id per line")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    _add_resource_flags(parser)
    parser.add_argument("--embeddings-path", help="embedding table (key<TAB>v1 v2 ... vd)")
    parser.add_argument("--linker", choices=LINKER_CHOICES)
    parser.add_argument("--n", dest="max_span_tokens", type=int, metavar="N", help="max tokens per enumerated span")
    parser.add_argument("--max-tokens", type=int, help="max tokens per segment")
    parser.add_argument("--top-p", type=int, help="candidates re-scored per span")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="gold CoNLL-style corpus file")
    parser.add_argument("--out", default="out", help="report output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linkeval", description="entity linking evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)
    # an unset flag stays out of the namespace, so RunConfig's default applies
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p_serve = command("serve", help="run the annotate service")
    p_serve.add_argument("--policy", choices=POLICY_CHOICES, help="candidate policy")
    _add_pipeline_flags(p_serve)
    p_serve.add_argument("--endpoint", default="127.0.0.1:8400", help="host:port to bind")

    p_run = command("run", help="benchmark a corpus")
    p_run.add_argument("--policy", choices=POLICY_CHOICES, help="candidate policy")
    _add_pipeline_flags(p_run)
    _add_report_flags(p_run)
    p_run.add_argument("--endpoint", default=None, help="annotate service host:port or http://host:port; omit to run in-process")
    p_run.add_argument("--parallel", type=int, help="concurrent documents")

    p_ablate = command("ablate", help="compare candidate policies on one corpus")
    _add_pipeline_flags(p_ablate)
    _add_report_flags(p_ablate)
    p_ablate.add_argument("--parallel", type=int, help="concurrent documents")

    p_score = command("score", help="score a prediction file against a gold corpus")
    _add_resource_flags(p_score)
    _add_report_flags(p_score)
    p_score.add_argument("--predictions", required=True, help="TSV: doc_id<TAB>begin<TAB>end<TAB>entity")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    try:
        return RunConfig(**{name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class Resources:
    """The files a RunConfig names, loaded once per command."""

    dictionary: AliasDictionary | None
    vocabulary_file: tuple[EntityId, ...] | None
    embeddings: EmbeddingTable

    @functools.cached_property
    def vocabulary(self) -> frozenset[EntityId] | None:
        """The vocabulary file's entities, else the dictionary's; None when no file names one.

        It is both the full policy's candidates and the in-KB set scoring
        reads. Resolved on first use: a dictionary-policy service never needs it.
        """
        if self.vocabulary_file is None:
            return None if self.dictionary is None else self.dictionary.vocabulary
        return frozenset(self.vocabulary_file)


def load_resources(config: RunConfig) -> Resources:
    """Load the dictionary, vocabulary and (for coherence) embeddings."""
    dictionary = vocabulary = None
    if config.dict_path:
        dictionary = load_alias_dictionary(Path(config.dict_path).read_bytes())
    if config.vocab_path:
        vocabulary = load_vocabulary(Path(config.vocab_path).read_bytes())
    embeddings = EmbeddingTable.empty()
    if config.linker == "coherence" and config.embeddings_path:
        embeddings = load_embeddings(Path(config.embeddings_path).read_bytes())
    return Resources(dictionary, vocabulary, embeddings)


def build_pipeline(config: RunConfig, resources: Resources) -> AnnotationPipeline:
    """The annotate pipeline a config describes: candidate policy, linker, segmenting."""
    if config.policy == "dict":
        if resources.dictionary is None:
            raise UsageError("dictionary policy needs --dict-path")
        policy = CandidatePolicy(CandidateMode.DICTIONARY, dictionary=resources.dictionary)
    elif config.policy == "full":
        if resources.vocabulary is None:
            raise UsageError("full-vocabulary policy needs --vocab-path or --dict-path")
        try:
            policy = CandidatePolicy(CandidateMode.FULL_VOCABULARY, full_vocabulary=resources.vocabulary)
        except ValueError as exc:  # a vocabulary with no linkable entity
            raise LinkEvalError(str(exc)) from exc
    else:
        policy = CandidatePolicy(CandidateMode.EMPTY)

    if config.linker == "prior_argmax" or (config.linker == "coherence" and not resources.embeddings.vectors):
        # with no vectors and zero params every coherence score is the prior,
        # so the rerank's output is prior_argmax's; the report keeps the name
        linker = functools.partial(link_prior_argmax, policy=policy, max_span_tokens=config.max_span_tokens)
    elif config.linker == "coherence":
        linker = functools.partial(
            link_coherence_rerank,
            policy=policy,
            embeddings=resources.embeddings,
            params=CoherenceParams.zeros(resources.embeddings.dimension),
            top_p=config.top_p,
            max_span_tokens=config.max_span_tokens,
        )
    else:
        linker = functools.partial(link_token_merge, policy=policy)
    return AnnotationPipeline(linker, max_tokens=config.max_tokens, name=config.linker, takes_tokens=True)


def _parse_endpoint(value: str) -> tuple[str, int]:
    """runner.parse_endpoint, as ``serve`` binds and ``run`` connects, with a usage error."""
    try:
        return parse_endpoint(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def load_predictions(data: bytes | str) -> dict[str, list[RawTriple]]:
    """Parse a prediction TSV: doc_id<TAB>begin<TAB>end<TAB>entity."""
    by_doc: dict[str, list[RawTriple]] = {}
    for number, line in data_lines(data):
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedLine(f"expected 4 tab-separated fields, got {len(fields)}", number)
        doc_id, begin_text, end_text, entity = fields
        try:
            begin, end = int(begin_text), int(end_text)
        except ValueError as exc:
            raise MalformedLine(f"offsets must be integers: {exc}", number) from exc
        if not entity:
            raise MalformedLine("entity must be non-empty", number)
        by_doc.setdefault(doc_id, []).append((begin, end, entity))
    return by_doc


def _read_corpus(path: str) -> Corpus:
    corpus_path = Path(path)
    return parse_conll(corpus_path.read_bytes(), name=corpus_path.stem)


def _cmd_serve(args: argparse.Namespace, config: RunConfig) -> int:
    pipeline = build_pipeline(config, load_resources(config))
    host, port = _parse_endpoint(args.endpoint)
    service = serve(pipeline, host, port)
    try:
        print(f"serving {config.linker} on {service.endpoint}", flush=True)
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.server_close()
    return 0


def _print_report_lines(report, paths) -> None:
    print(f"dataset={report.dataset} P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}")
    for path in paths:
        print(f"wrote {path}")


# flags that configure the linking pipeline, which a remote service decides
_SERVICE_FLAGS = {
    "policy": "--policy",
    "linker": "--linker",
    "max_span_tokens": "--n",
    "max_tokens": "--max-tokens",
    "top_p": "--top-p",
    "embeddings_path": "--embeddings-path",
}


def _cmd_run(args: argparse.Namespace, config: RunConfig) -> int:
    if args.endpoint:
        given = [flag for dest, flag in _SERVICE_FLAGS.items() if dest in vars(args)]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be used with --endpoint: the service decides them")
        _parse_endpoint(args.endpoint)  # the form serve takes; a usage error before any file is read
    corpus = _read_corpus(args.corpus)
    resources = load_resources(config)
    if args.endpoint:
        annotator = HttpAnnotator(args.endpoint)
    else:
        annotator = InProcessAnnotator(build_pipeline(config, resources))
    try:
        report = run_benchmark(corpus, annotator, config, vocabulary=resources.vocabulary)
    finally:
        if args.endpoint:
            annotator.close()
    paths = emit_report(report, Path(args.out))
    _print_report_lines(report, paths)
    return 0


def _cmd_ablate(args: argparse.Namespace, config: RunConfig) -> int:
    corpus = _read_corpus(args.corpus)
    resources = load_resources(config)
    if resources.dictionary is None:
        raise UsageError("ablate needs --dict-path for its dictionary baseline")

    out = Path(args.out)
    configs = {mode: dataclasses.replace(config, policy=mode) for mode in POLICY_CHOICES}
    pipelines = {mode: build_pipeline(configs[mode], resources) for mode in POLICY_CHOICES}  # before any report
    reports = {}
    for mode in POLICY_CHOICES:
        report = run_benchmark(corpus, InProcessAnnotator(pipelines[mode]), configs[mode], vocabulary=resources.vocabulary)
        reports[mode] = report
        emit_report(report, out / mode, label=mode)
        print(f"{mode}: P={report.micro_precision:.4f} R={report.micro_recall:.4f} F1={report.micro_f1:.4f}")

    ratio_path = write_ratio_file([(mode, reports[mode].breakdown) for mode in POLICY_CHOICES], out / RATIO_FILE)
    delta_rows = []
    for mode in ("full", "empty"):
        p_d, r_d = pr_delta(reports["dict"], reports[mode])
        delta_rows.append((mode, p_d, r_d))
    delta_path = write_delta_file(delta_rows, out / DELTA_FILE)
    print(f"wrote {ratio_path}")
    print(f"wrote {delta_path}")
    return 0


def _cmd_score(args: argparse.Namespace, config: RunConfig) -> int:
    corpus = _read_corpus(args.corpus)
    predictions = load_predictions(Path(args.predictions).read_bytes())
    known = {doc.doc_id for doc in corpus.documents}
    unknown = [doc_id for doc_id in predictions if doc_id not in known]
    if unknown:
        ignored = sum(len(predictions[doc_id]) for doc_id in unknown)
        print(f"warning: ignored {ignored} predictions for {len(unknown)} doc ids not in the corpus", file=sys.stderr)
    report = run_benchmark(corpus, PredictionFileAnnotator(predictions), config, vocabulary=load_resources(config).vocabulary)
    paths = emit_report(report, Path(args.out))
    _print_report_lines(report, paths)
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "run": _cmd_run,
    "ablate": _cmd_ablate,
    "score": _cmd_score,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _run_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LinkEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
