"""The ``linkeval serve`` child process of the serve-http workload.

Run as a script, this is the child: it puts the package sources on the
path, installs the same span wraps as the benchmark process when
``--trace-out`` is given, and calls ``linkeval.cli.cli_main`` with the
arguments after ``--``. On SIGINT, or once its parent is gone, the
service stops, and a traced child writes its spans, counters and its CPU
and wall time since the first request to ``--trace-out``.

Imported, ``ServerProcess`` is the parent's handle on that child: it binds
port 0, waits until ``GET /health`` answers, and always terminates the
child, so a start or health failure is an exception within the timeout,
never a hang or a leftover process.
"""

from __future__ import annotations

import _thread
import argparse
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit


class ServerFailed(RuntimeError):
    """The child did not come up and answer /health in time."""


class ServerProcess:
    def __init__(self, src: Path, serve_args: list[str], trace_out: Path | None = None, timeout: float = 60.0):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--src", str(src)]
        if trace_out is not None:
            self.argv += ["--trace-out", str(trace_out)]
        self.argv += ["--", *serve_args, "--endpoint", "127.0.0.1:0"]
        self.timeout = timeout
        self.proc: subprocess.Popen | None = None

    def start(self) -> str:
        """Spawn the child and return its endpoint once /health answers."""
        self.proc = subprocess.Popen(self.argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        deadline = time.monotonic() + self.timeout
        banner = self._read_line(deadline)
        match = re.search(r" on (http://\S+)", banner)
        if match is None:
            raise ServerFailed(f"unexpected banner {banner!r}")
        endpoint = match.group(1)
        self._wait_health(endpoint, deadline)
        return endpoint

    def _read_line(self, deadline: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerFailed("no banner before the start timeout")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise ServerFailed(f"server exited with code {self.proc.wait()} before binding")
                buf += chunk
        return buf.split(b"\n", 1)[0].decode("utf-8", "replace")

    def _wait_health(self, endpoint: str, deadline: float) -> None:
        parts = urlsplit(endpoint)
        while True:
            conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=2.0)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            if self.proc.poll() is not None:
                raise ServerFailed(f"server exited with code {self.proc.returncode} before /health answered")
            if time.monotonic() > deadline:
                raise ServerFailed("/health did not answer before the start timeout")
            time.sleep(0.01)

    def stop(self) -> None:
        """Interrupt the child, kill it if it lingers, and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


def _exit_with_parent(parent: int) -> None:
    """Interrupt the service as SIGINT would once the benchmark process is gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    _thread.interrupt_main()


def main() -> int:
    parser = argparse.ArgumentParser(description="linkeval serve child for the benchmark")
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    sys.path.insert(0, args.src)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    from linkeval import cli, service

    if not args.trace_out:
        return cli.cli_main(serve_args)

    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    window: dict[str, float] = {}
    decode = service.decode_request

    def first_request_marker(body: bytes):
        if not window:
            window.update(cpu=time.process_time(), wall=time.perf_counter())
        return decode(body)

    service.decode_request = first_request_marker
    try:
        return cli.cli_main(serve_args)
    finally:
        cpu = time.process_time() - window.get("cpu", time.process_time())
        wall = time.perf_counter() - window.get("wall", time.perf_counter())
        spans, counts = tracer.drain()
        Path(args.trace_out).write_text(
            json.dumps({"spans": spans, "counts": counts, "cpu_s": cpu, "wall_s": wall}), encoding="utf-8"
        )


if __name__ == "__main__":
    sys.exit(main())
