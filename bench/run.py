"""Seeded end-to-end benchmark of linkeval's run, score, serve and ablate commands.

    python3 bench/run.py --workload run-dict --seed 1 --seconds 15 --trace 0

One run generates the workload's inputs from the seed, then drives the
product's own entry point, ``linkeval.cli.cli_main``, in a closed loop:
after one untimed warm-up command, the whole command runs again and
again until ``--seconds`` have passed (and at least 200 annotate calls
were timed). Each figure is the median over those commands, leaving out
the ones that other guests on the host took much CPU time from (see
``least_stolen``); annotate latencies are pooled. Every command's
outputs are checked. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced commands with commands traced by spans wrapped around linkeval's
public functions (see spans.py), and reports the per-layer metrics,
including the tracing overhead. README.md in this directory explains both.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
import gen
from server import ServerProcess
from spans import PER_LAYER, Tracer, install, layer_metrics, median_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
MIN_LATENCY_SAMPLES = 200  # so annotate_ms_p95 has at least 10 samples beyond it
START_NO_COMMAND_AFTER_S = 110.0  # keeps a run well inside its 180 s limit
STEAL_CLEAN = 0.01  # a command counts as undisturbed while the hypervisor steals at most this share
SERVER_SPAN_ID_OFFSET = 10**9

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple[str, ...]  # "{name}" stands for a generated input file
    serve_args: tuple[str, ...] = ()  # non-empty: drive `linkeval serve` with these in a child


WORKLOADS = {
    "run-dict": Workload(
        "run",
        ("--corpus", "{corpus}", "--dict-path", "{aliases}", "--policy", "dict", "--linker", "prior_argmax",
         "--max-tokens", "512", "--parallel", "1"),
    ),
    "score-dense": Workload("score", ("--corpus", "{corpus}", "--predictions", "{predictions}", "--vocab-path", "{vocab}")),
    "serve-http": Workload(
        "run",
        ("--corpus", "{corpus}", "--dict-path", "{aliases}", "--parallel", "2"),
        serve_args=("serve", "--dict-path", "{aliases}", "--policy", "dict", "--linker", "prior_argmax", "--max-tokens", "512"),
    ),
    "ablate-full": Workload("ablate", ("--corpus", "{corpus}", "--dict-path", "{aliases}", "--vocab-path", "{vocab}",
                                       "--linker", "prior_argmax")),
}

END_TO_END = {
    "docs_per_s": "docs/s",
    "wall_s": "s",
    "setup_s": "s",
    "annotate_ms_p50": "ms",
    "annotate_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


class CpuRotation:
    """Moves the calling thread round the CPUs it may use, every `period` seconds.

    On a shared host each CPU's speed drifts on its own, by up to 2x for
    seconds at a time. A single-threaded command that stays on one CPU
    measures that CPU's drift; rotating makes every command see all of
    them. Threads the calling thread starts inherit the CPU it is on at
    that moment, so this is only for commands that run on one thread.
    """

    def __init__(self, period: float = 0.2):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.period = period
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self._thread = threading.Thread(target=self._rotate, args=(threading.get_native_id(),), daemon=True)
            self._thread.start()
        return self

    def _rotate(self, tid: int) -> None:
        turn = 0
        while not self._stop.wait(self.period):
            turn += 1
            os.sched_setaffinity(tid, {self.cpus[turn % len(self.cpus)]})
        os.sched_setaffinity(tid, self.cpus)

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()


class TimedAnnotator:
    """Proxy around the annotator handed to run_benchmark; times each annotate call."""

    def __init__(self, inner, latencies_ms: list[float], tracer: Tracer | None):
        self.inner = inner
        self.latencies_ms = latencies_ms
        self.tracer = tracer

    def annotate(self, text: str, doc_id: str | None = None):
        start = perf()
        if self.tracer is None:
            result = self.inner.annotate(text, doc_id)
        else:
            self.tracer.set_doc(doc_id)
            result = self.tracer.call("runner.annotate", self.inner.annotate, (text, doc_id), {})
        self.latencies_ms.append((perf() - start) * 1000.0)
        return result


class Recorder:
    """Stands in for ``linkeval.cli.run_benchmark`` and times every call."""

    def __init__(self, run_benchmark):
        self.run_benchmark = run_benchmark
        self.start(None)

    def start(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.first_call: float | None = None
        self.run_s = 0.0
        self.docs = 0
        self.reports: list = []
        self.latencies_ms: list[float] = []

    def __call__(self, corpus, annotator, config, vocabulary=None):
        started = perf()
        if self.first_call is None:
            self.first_call = started
        if self.tracer is not None:
            self.tracer.root = self.tracer.current()
        try:
            report = self.run_benchmark(corpus, TimedAnnotator(annotator, self.latencies_ms, self.tracer), config, vocabulary=vocabulary)
        finally:
            self.run_s += perf() - started
            if self.tracer is not None:
                self.tracer.set_doc(None)
        self.docs += len(corpus.documents)
        self.reports.append(report)
        return report


@dataclass
class Rep:
    """One timed command."""

    attempted: int
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    docs_per_s: float = 0.0
    steal_share: float = 0.0  # share of the machine's CPU time given to other guests during the command
    latencies_ms: list[float] = field(default_factory=list)
    layers: dict[str, float] | None = None
    spans: list[tuple] = field(default_factory=list)


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        from linkeval import cli

        self.cli = cli
        self.workload = WORKLOADS[name]
        self.work = work
        self.out = work / "out"
        inputs = work / "inputs"
        self.counts, truth = gen.generate(gen.SHAPES[name], seed, inputs)
        self.files = {
            "corpus": inputs / "corpus.conll",
            "aliases": inputs / "aliases.tsv",
            "vocab": inputs / "vocab.txt",
            "predictions": inputs / "predictions.tsv",
        }
        self.policies = len(checks.ABLATE_POLICIES) if self.workload.command == "ablate" else 1
        self.recorder = Recorder(cli.run_benchmark)
        cli.run_benchmark = self.recorder
        # untimed references for the output checks
        self.oracle = {doc_id: checks.oracle_counts(gold, preds) for doc_id, (gold, preds) in truth.items()} or None
        self.reference = self._in_process_reference() if self.workload.serve_args else None

    def _fill(self, args: tuple[str, ...]) -> list[str]:
        return [str(self.files[a[1:-1]]) if a.startswith("{") else a for a in args]

    def _argv(self, endpoint: str | None = None) -> list[str]:
        argv = [self.workload.command, *self._fill(self.workload.args), "--out", str(self.out)]
        return argv + ["--endpoint", endpoint] if endpoint else argv

    def _in_process_reference(self):
        self.recorder.start(None)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.cli_main(self._argv())
        if code != 0 or len(self.recorder.reports) != 1:
            raise RuntimeError(f"in-process reference run exited with {code}")
        return self.recorder.reports[0]

    def rep(self, tracer: Tracer | None, index: int) -> Rep:
        rep = Rep(attempted=self.counts["docs"] * self.policies)
        shutil.rmtree(self.out, ignore_errors=True)
        if tracer is not None:
            tracer.drain()
        self.recorder.start(tracer)
        trace_out = self.work / f"server-{index}.json" if tracer is not None and self.workload.serve_args else None
        server = None
        code = None
        steal_before = steal_after = host_steal_s()
        started = perf()
        try:
            endpoint = None
            if self.workload.serve_args:
                server = ServerProcess(SRC, self._fill(self.workload.serve_args), trace_out)
                endpoint = server.start()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = self.cli.cli_main(self._argv(endpoint))
                else:
                    code = tracer.call("cli.cli_main", self.cli.cli_main, (self._argv(endpoint),), {})
            returned = perf()
            steal_after = host_steal_s()
        except Exception as exc:  # a crashed command fails all its documents; the run goes on
            traceback.print_exc()
            rep.reasons.append(f"{type(exc).__name__}: {exc}")
        finally:
            if server is not None:
                server.stop()
        rec = self.recorder
        if code != 0 or rec.first_call is None or rec.run_s <= 0:
            rep.failed = rep.attempted
            rep.reasons.append(f"command exited with {code}")
            return rep
        rep.failed, reasons = checks.check_command(
            self.workload.command, rec.reports, self.out, self.counts["docs"], self.counts["gold"],
            reference=self.reference, oracle=self.oracle,
        )
        rep.reasons += reasons
        rep.wall_s = returned - started
        rep.setup_s = rec.first_call - started
        rep.docs_per_s = rec.docs / rec.run_s
        if steal_before is not None and steal_after is not None:
            rep.steal_share = (steal_after - steal_before) / (rep.wall_s * os.cpu_count())
        rep.latencies_ms = rec.latencies_ms
        if tracer is not None:
            rep.spans, counts = tracer.drain()
            cpu_per_wall = 0.0
            if trace_out is not None:
                if not trace_out.is_file():
                    rep.failed = rep.attempted
                    rep.reasons.append("the server child wrote no trace")
                    return rep
                child = json.loads(trace_out.read_text(encoding="utf-8"))
                for key, value in child["counts"].items():
                    counts[key] = counts.get(key, 0.0) + value
                rep.spans += [
                    (i + SERVER_SPAN_ID_OFFSET, name, start, end, None if parent is None else parent + SERVER_SPAN_ID_OFFSET, doc, leaf)
                    for i, name, start, end, parent, doc, leaf in child["spans"]
                ]
                cpu_per_wall = child["cpu_s"] / child["wall_s"] if child["wall_s"] > 0 else 0.0
            rep.layers = layer_metrics(rep.spans, counts, rec.docs, cpu_per_wall)
        return rep


def _loop(bench: Bench, seconds: float, deadline: float) -> list[Rep]:
    """Untraced commands until `seconds` passed, MIN_REPS ran and MIN_LATENCY_SAMPLES were timed."""
    reps: list[Rep] = []
    start = perf()
    while perf() < deadline:
        reps.append(bench.rep(None, len(reps)))
        samples = sum(len(r.latencies_ms) for r in reps)
        if len(reps) >= MIN_REPS and perf() - start >= seconds and samples >= MIN_LATENCY_SAMPLES:
            break
    return reps


def _traced_loop(bench: Bench, seconds: float, deadline: float) -> tuple[list[Rep], list[Rep]]:
    """Untraced and traced commands in turn, so both see the same machine."""
    tracer = Tracer()
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = perf()
    while perf() < deadline:
        plain.append(bench.rep(None, len(plain)))
        uninstall = install(tracer)
        try:
            traced.append(bench.rep(tracer, len(traced)))
        finally:
            uninstall()
        if len(traced) >= 2 and perf() - start >= seconds:
            break
    return plain, traced


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def least_stolen(reps: list[Rep]) -> list[Rep]:
    """The commands the hypervisor disturbed least.

    On a shared host other guests take CPU time from this one in bursts of a
    minute or two, and a command that runs through one slows by up to 2x
    (its tail latency more). The figures come from every command whose
    steal share is at most STEAL_CLEAN, but from no fewer than the least
    stolen half of them and no fewer than MIN_LATENCY_SAMPLES annotate calls.
    """
    ranked = sorted(reps, key=lambda r: r.steal_share)
    keep = max(sum(r.steal_share <= STEAL_CLEAN for r in ranked), math.ceil(len(ranked) / 2))
    while keep < len(ranked) and sum(len(r.latencies_ms) for r in ranked[:keep]) < MIN_LATENCY_SAMPLES:
        keep += 1
    return ranked[:keep]


def end_to_end(reps: list[Rep], serve: bool) -> tuple[dict[str, float], list[Rep]]:
    """The end-to-end figures, and the commands they were taken from."""
    used = least_stolen([r for r in reps if r.docs_per_s > 0]) or [Rep(attempted=0)]
    latencies = sorted(x for r in used for x in r.latencies_ms) or [0.0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if serve:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "docs_per_s": statistics.median(r.docs_per_s for r in used),
        "wall_s": statistics.median(r.wall_s for r in used),
        "setup_s": statistics.median(r.setup_s for r in used),
        "annotate_ms_p50": _percentile(latencies, 0.50),
        "annotate_ms_p95": _percentile(latencies, 0.95),
        "peak_rss_mb": rss_kb / 1024.0,
    }, used


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor gave to other guests (the steal column of /proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "linkeval").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _write_trace(path: Path, reps: list[Rep]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for index, rep in enumerate(reps):
            selfs = self_times(rep.spans)
            for span_id, name, start, end, parent, doc, _leaf in rep.spans:
                record = {
                    "rep": index,
                    "proc": "server" if span_id >= SERVER_SPAN_ID_OFFSET else "client",
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "doc": doc,
                    "self_s": selfs[span_id],
                }
                fh.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="linkeval end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "linkeval" / "__init__.py").is_file():
        print(f"error: linkeval sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = perf() + START_NO_COMMAND_AFTER_S
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # SIGTERM unwinds like an error, so the finally blocks stop the server child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        bench = Bench(args.workload, args.seed, work)
        serve = bool(bench.workload.serve_args)
        steal_before, loop_start = host_steal_s(), perf()
        # serve-http runs client threads and a child process, which would inherit one CPU
        rotation = contextlib.nullcontext() if serve else CpuRotation()
        with rotation:
            # one checked but untimed command first, so caches and lazy state are warm
            warm = bench.rep(None, 0)
            if args.trace:
                plain, traced = _traced_loop(bench, args.seconds, deadline)
            else:
                plain = _loop(bench, args.seconds, deadline)
        reps = [warm] + plain
        if args.trace:
            reps += traced
            metrics = median_metrics([r.layers for r in traced if r.layers is not None] or [dict.fromkeys(PER_LAYER, 0.0)])
            traced_rate = statistics.median(r.docs_per_s for r in traced)
            metrics["trace.overhead_ratio"] = statistics.median(r.docs_per_s for r in plain) / traced_rate if traced_rate > 0 else 0.0
            units = PER_LAYER
            _write_trace(results / f"{args.workload}-seed{args.seed}.trace.jsonl", traced)
        else:
            units = END_TO_END
        steal_after, loop_s = host_steal_s(), perf() - loop_start
        e2e, used = end_to_end(plain, serve)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        metrics["failed_docs_ratio"] = failed / attempted
    else:
        metrics = e2e
    reasons = [reason for r in reps for reason in r.reasons]
    samples = sum(len(r.latencies_ms) for r in used)
    # share of the machine's CPU time taken by other guests while the loop ran;
    # high values explain slow or noisy figures
    steal = None if steal_before is None or steal_after is None else (steal_after - steal_before) / (loop_s * os.cpu_count())
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "inputs": {"shape": asdict(gen.SHAPES[args.workload]), "counts": bench.counts},
        "commands": len(reps),
        "commands_used": len(used),
        "annotate_samples": samples,
        "failed_docs_ratio": failed / attempted,
        "host_steal_share": steal,
        "end_to_end": e2e,
        "per_rep": [{"wall_s": r.wall_s, "setup_s": r.setup_s, "docs_per_s": r.docs_per_s, "steal_share": r.steal_share,
                     "failed": r.failed} for r in reps],
        "metrics": metrics,
        "reasons": reasons[:20],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commands={len(reps)} used={len(used)} "
          f"annotate_samples={samples} failed_docs_ratio={failed / attempted:.4f} ({failed} of {attempted})")
    print(f"# provenance {json.dumps(record['provenance'])} host_steal_share={steal}")
    for reason in reasons[:5]:
        print(f"# check failed: {reason}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6f} {units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
