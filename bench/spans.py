"""Span tracing installed from outside around linkeval's public functions.

Every wrap replaces a function at the name its caller looks it up by, so
the package itself is never edited. ``tokenize`` is also bound as a
default argument of ``split_document`` and of the linkers; those defaults
are rewritten too, or the linker's own tokenize call would go unseen.

Spans are kept in memory as tuples ``(id, name, start, end, parent, doc,
leaf_s)`` and written out when the benchmark ends. ``candidates_for`` runs
hundreds of thousands of times per command, so it is a *leaf*: it gets
counters instead of spans, and its time is charged to the enclosing span
so that self times stay right. A span's self time is its duration minus
the union of its child spans' intervals minus its leaf time.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable

perf = time.perf_counter


class Tracer:
    """In-memory spans and per-thread counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None  # parent for spans opened on threads with an empty stack
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counts: list[defaultdict] = []
        self._generation = 0

    def _state(self):
        st = self._local
        if getattr(st, "generation", None) != self._generation:
            st.generation = self._generation
            st.stack = []
            st.doc = None
            st.counts = defaultdict(float)
            with self._lock:
                self._counts.append(st.counts)
        return st

    def current(self) -> int | None:
        stack = self._state().stack
        return stack[-1][0] if stack else None

    def set_doc(self, doc_id: str | None) -> None:
        self._state().doc = doc_id

    def count(self, name: str, value: float = 1) -> None:
        self._state().counts[name] += value

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, observe: Callable | None = None):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else self.root
        frame = [next(self._ids), 0.0]
        st.stack.append(frame)
        start = perf()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result, args)
            return result
        finally:
            end = perf()
            st.stack.pop()
            self.spans.append((frame[0], name, start, end, parent, st.doc, frame[1]))

    def drain(self) -> tuple[list[tuple], dict[str, float]]:
        """Return and forget everything recorded since the last drain."""
        with self._lock:
            spans, self.spans = self.spans, []
            merged: dict[str, float] = defaultdict(float)
            for counts in self._counts:
                for key, value in counts.items():
                    merged[key] += value
            self._counts = []
            self._generation += 1
        self.root = None
        return spans, dict(merged)


def _wrap(tracer: Tracer, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    return wrapper


def _wrap_candidates_for(tracer: Tracer, fn: Callable) -> Callable:
    """Counters instead of a span: this runs once per enumerated window."""

    @functools.wraps(fn)
    def wrapper(mention, policy):
        st = tracer._state()
        start = perf()
        result = fn(mention, policy)
        elapsed = perf() - start
        counts = st.counts
        counts["candidates.candidates_for.s"] += elapsed
        counts["candidates.candidates_for.calls"] += 1
        returned = len(result.candidates)
        if returned:
            counts["candidates.candidates_for.returned"] += returned
            counts["candidates.candidates_for.hits"] += 1
        if st.stack:
            st.stack[-1][1] += elapsed
        return result

    return wrapper


def _count_len(counter: str) -> Callable:
    def observe(tracer: Tracer, result, args) -> None:
        tracer.count(counter, len(result))

    return observe


def _observe_match(tracer: Tracer, result, args) -> None:
    tracer.count("scoring.gold_x_pred", len(args[0]) * len(args[1]))


def _observe_request(tracer: Tracer, result, args) -> None:
    tracer.set_doc(result.doc_id)
    tracer.count("service.requests")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap linkeval's public functions; return a function that undoes it."""
    from linkeval import adapters, cli, linkers, reports, runner, service

    undo: list[Callable[[], None]] = []

    def patch(owner, attr: str, name: str, **kwargs) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, name, original, **kwargs))
        undo.append(lambda: setattr(owner, attr, original))

    patch(cli, "run_benchmark", "runner.run_benchmark")
    patch(cli, "parse_conll", "conll.parse_conll")
    patch(cli, "load_alias_dictionary", "candidates.load_alias_dictionary")
    patch(cli, "load_vocabulary", "candidates.load_vocabulary")
    patch(cli, "load_predictions", "cli.load_predictions")
    patch(cli, "link_prior_argmax", "linkers.link_prior_argmax", observe=_count_len("linkers.kept"))
    patch(cli, "emit_report", "reports.emit_report")
    for owner in (cli, reports):
        patch(owner, "write_ratio_file", "reports.write_ratio_file")
        patch(owner, "write_delta_file", "reports.write_delta_file")
    candidates_for = linkers.candidates_for
    linkers.candidates_for = _wrap_candidates_for(tracer, candidates_for)
    undo.append(lambda: setattr(linkers, "candidates_for", candidates_for))
    patch(linkers, "enumerate_token_windows", "linkers.enumerate_token_windows", observe=_count_len("linkers.spans"))
    patch(runner, "match_annotations", "scoring.match_annotations", observe=_observe_match)
    patch(runner, "validate_triples", "runner.validate_triples")
    patch(runner, "encode_request", "runner.encode_request")
    patch(runner, "decode_response", "runner.decode_response")
    patch(service, "split_document", "adapters.split_document", observe=_count_len("adapters.segments"))
    patch(service, "merge_segment_annotations", "adapters.merge_segment_annotations")
    patch(service, "decode_request", "service.decode_request", observe=_observe_request)
    patch(service, "encode_response", "service.encode_response")
    patch(service.AnnotationPipeline, "annotate_triples", "service.annotate_triples")

    connections = service.AnnotatorService.process_request

    def counted_process_request(self, *args, **kwargs):
        tracer.count("service.connections")
        return connections(self, *args, **kwargs)

    service.AnnotatorService.process_request = counted_process_request
    undo.append(lambda: setattr(service.AnnotatorService, "process_request", connections))

    tokenize = adapters.tokenize
    traced_tokenize = _wrap(tracer, "adapters.tokenize", tokenize)
    split_defaults = adapters.split_document.__defaults__
    adapters.split_document.__defaults__ = (traced_tokenize,)
    undo.append(lambda: setattr(adapters.split_document, "__defaults__", split_defaults))
    for linker in (linkers.link_prior_argmax, linkers.link_coherence_rerank, linkers.link_token_merge):
        linker.__kwdefaults__["tokenizer"] = traced_tokenize
        undo.append(functools.partial(linker.__kwdefaults__.__setitem__, "tokenizer", tokenize))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children minus leaf time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent, _doc, _leaf in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for span_id, _name, start, end, _parent, _doc, leaf_s in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered - leaf_s
    return out


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "conll.parse_conll.s": "s",
    "candidates.load_alias_dictionary.s": "s",
    "candidates.load_vocabulary.s": "s",
    "candidates.candidates_for.calls": "count",
    "candidates.candidates_for.s": "s",
    "candidates.candidates_for.returned": "count",
    "candidates.candidates_for.hit_ratio": "ratio",
    "adapters.tokenize.calls_per_doc": "calls/doc",
    "adapters.tokenize.s": "s",
    "adapters.split_document.s": "s",
    "adapters.segments_per_doc": "segments/doc",
    "adapters.merge_segment_annotations.s": "s",
    "linkers.link_prior_argmax.self_s": "s",
    "linkers.enumerate_token_windows.spans": "count",
    "linkers.kept_ratio": "ratio",
    "scoring.match_annotations.s": "s",
    "scoring.match_annotations.calls": "count",
    "scoring.gold_x_pred": "count",
    "runner.run_benchmark.self_s": "s",
    "runner.validate_triples.s": "s",
    "cli.load_predictions.s": "s",
    "service.annotate_triples.s": "s",
    "service.codec_s": "s",
    "runner.codec_s": "s",
    "service.wire_s": "s",
    "service.requests_per_connection": "requests/conn",
    "service.server_cpu_per_wall": "ratio",
    "reports.emit_report.s": "s",
    "reports.write_ratio_file.s": "s",
    "reports.write_delta_file.s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_docs_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], counts: dict[str, float], docs: int, server_cpu_per_wall: float) -> dict[str, float]:
    """Per-layer figures for one command from its spans and counters.

    ``spans`` and ``counts`` cover every process of the command (client and
    server); ``docs`` is the number of documents annotated. Figures of a
    layer the command never ran read 0.
    """
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span_id, name, start, end, *_ in spans:
        total[name] += end - start
        calls[name] += 1
        self_total[name] += selfs[span_id]
    cand_calls = counts.get("candidates.candidates_for.calls", 0.0)
    server_pipeline = total["service.decode_request"] + total["service.annotate_triples"] + total["service.encode_response"]
    client_codec = total["runner.encode_request"] + total["runner.decode_response"]
    wire = total["runner.annotate"] - client_codec - server_pipeline if counts.get("service.requests") else 0.0
    return {
        "conll.parse_conll.s": total["conll.parse_conll"],
        "candidates.load_alias_dictionary.s": total["candidates.load_alias_dictionary"],
        "candidates.load_vocabulary.s": total["candidates.load_vocabulary"],
        "candidates.candidates_for.calls": cand_calls,
        "candidates.candidates_for.s": counts.get("candidates.candidates_for.s", 0.0),
        "candidates.candidates_for.returned": counts.get("candidates.candidates_for.returned", 0.0),
        "candidates.candidates_for.hit_ratio": _ratio(counts.get("candidates.candidates_for.hits", 0.0), cand_calls),
        "adapters.tokenize.calls_per_doc": _ratio(calls["adapters.tokenize"], docs),
        "adapters.tokenize.s": total["adapters.tokenize"],
        "adapters.split_document.s": total["adapters.split_document"],
        "adapters.segments_per_doc": _ratio(counts.get("adapters.segments", 0.0), docs),
        "adapters.merge_segment_annotations.s": total["adapters.merge_segment_annotations"],
        "linkers.link_prior_argmax.self_s": self_total["linkers.link_prior_argmax"],
        "linkers.enumerate_token_windows.spans": counts.get("linkers.spans", 0.0),
        "linkers.kept_ratio": _ratio(counts.get("linkers.kept", 0.0), counts.get("linkers.spans", 0.0)),
        "scoring.match_annotations.s": total["scoring.match_annotations"],
        "scoring.match_annotations.calls": calls["scoring.match_annotations"],
        "scoring.gold_x_pred": counts.get("scoring.gold_x_pred", 0.0),
        "runner.run_benchmark.self_s": self_total["runner.run_benchmark"],
        "runner.validate_triples.s": total["runner.validate_triples"],
        "cli.load_predictions.s": total["cli.load_predictions"],
        "service.annotate_triples.s": total["service.annotate_triples"],
        "service.codec_s": total["service.decode_request"] + total["service.encode_response"],
        "runner.codec_s": client_codec,
        "service.wire_s": wire,
        "service.requests_per_connection": _ratio(counts.get("service.requests", 0.0), counts.get("service.connections", 0.0)),
        "service.server_cpu_per_wall": server_cpu_per_wall,
        "reports.emit_report.s": total["reports.emit_report"],
        "reports.write_ratio_file.s": total["reports.write_ratio_file"],
        "reports.write_delta_file.s": total["reports.write_delta_file"],
    }


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(rep[name] for rep in per_rep) for name in per_rep[0]}
