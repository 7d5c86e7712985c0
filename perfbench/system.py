"""The system under test as users run it, and the load that drives it.

:class:`Server` launches ``python -m repro serve`` (optionally
``--workers N``) from the checkout's sources, waits for its ready line
and tears the whole process group down again.  The load generators use
at most ``CONNECTIONS`` threads, each with its own keep-alive HTTP
connection: a closed loop (each client sends its next request when the
previous answer arrives) and an open loop (Poisson arrivals on a fixed
schedule, latency counted from each request's due time), both in
:func:`drive`.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Never more load threads and connections than the box has CPUs.
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
RETRY_LIMIT = 3
RETRY_AFTER_CAP = 1.0
READY_LINE = re.compile(r"serving on http://([^\s:]+):(\d+)")


class Server:
    """One fresh ``python -m repro serve`` process group (default flags
    unless ``flags`` adds some)."""

    def __init__(self, root: Path, *, log: Path, workers: int = 1,
                 flags: tuple = ()) -> None:
        self.root, self.workers, self.flags, self.log = root, workers, flags, log
        self.process: subprocess.Popen | None = None
        self.host, self.port = "127.0.0.1", None
        self.launched_at = None

    def start(self, timeout: float = 120.0) -> "Server":
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        command = [sys.executable, "-m", "repro", "serve", "--host", self.host,
                   "--port", "0"]
        if self.workers > 1:
            command += ["--workers", str(self.workers)]
        command += list(self.flags)
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.launched_at = time.perf_counter()
        with open(self.log, "a", encoding="utf-8") as stderr:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=stderr, env=env,
                cwd=str(self.root), text=True, start_new_session=True)
        ready = threading.Event()

        def pump(stream) -> None:
            # Scrape the ready line, then keep stdout drained (the adaptive
            # controller prints its decisions there).
            for line in stream:
                if self.port is None:
                    match = READY_LINE.search(line)
                    if match:
                        self.port = int(match.group(2))
                        ready.set()
            ready.set()

        self._pump = threading.Thread(target=pump, args=(self.process.stdout,),
                                      daemon=True)
        self._pump.start()
        if not ready.wait(timeout) or self.port is None:
            self.stop()
            raise RuntimeError(f"server never became ready: {' '.join(command)}")
        return self

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate the process group (router and workers alike), wait for
        every member to exit and kill whatever is left after ``timeout``.
        SIGTERM, not SIGINT: a process started from a background shell
        inherits an ignored SIGINT."""
        if self.process is None:
            return
        pgid = self.process.pid
        for sig, wait in ((signal.SIGTERM, timeout), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + wait
            while time.monotonic() < deadline:
                self.process.poll()
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                continue
            break
        self.process.wait(timeout=10.0)
        self._pump.join(timeout=5.0)
        self.process.stdout.close()
        self.process = None

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str) -> bytes:
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            data = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} answered {response.status}")
            return data
        finally:
            connection.close()

    def stats(self) -> dict:
        return json.loads(self.get("/v1/stats"))


@dataclass
class Outcome:
    """One request as the client saw it."""

    stream: str
    index: int
    key: int
    status: int | None      # None: transport error
    latency: float          # seconds: from send (closed) or due time (open)
    late: float = 0.0       # seconds the generator sent after the due time
    done: float = 0.0       # perf_counter at completion
    data: bytes | None = None
    retries: int = 0


def post(connection, body: bytes) -> tuple:
    """One POST /v1/run with bounded 429 retries honouring Retry-After.
    Returns ``(status, data, shard, retries, connection)``; status None
    means a transport error (the connection is replaced)."""
    retries = 0
    while True:
        try:
            connection.request("POST", "/v1/run", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            return None, None, None, retries, connection
        if response.status == 429 and retries < RETRY_LIMIT:
            retries += 1
            try:
                delay = float(response.getheader("Retry-After") or 0.05)
            except ValueError:
                delay = 0.05
            time.sleep(min(max(delay, 0.0), RETRY_AFTER_CAP))
            continue
        return (response.status, data, response.getheader("X-Repro-Shard"),
                retries, connection)


def drive(server: Server, inputs, stream: str, *, count: int | None = None,
          seconds: float | None = None, offsets=None, spans=None,
          parent=None) -> tuple[list[Outcome], float]:
    """``CONNECTIONS`` clients share one request counter over ``stream``.

    Closed loop (``count`` and/or ``seconds``): each client sends its next
    request as soon as its previous one is answered, until ``count``
    requests were taken or ``seconds`` have passed.  Open loop
    (``offsets``): request ``i`` is due at ``start + offsets[i]`` and goes
    out on the first free connection; its latency runs from that due
    time, so a stall is charged to every request it delays.  Returns the
    outcomes and the elapsed seconds."""
    if offsets is not None:
        count = len(offsets)
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    counter = iter(range(count if count is not None else 1 << 62))
    start = time.perf_counter() + (0.05 if offsets is not None else 0.0)
    deadline = start + seconds if seconds is not None else float("inf")

    def client() -> None:
        connection = server.connect()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                key, body = inputs.request(stream, index)
                due = None
                if offsets is not None:
                    due = start + float(offsets[index])
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                span = spans.begin("client.request", (stream, index), parent) if spans else None
                sent = time.perf_counter()
                status, data, _, retries, connection = post(connection, body)
                done = time.perf_counter()
                if span is not None:
                    spans.end(span)
                due = sent if due is None else due
                with lock:
                    outcomes.append(Outcome(stream, index, key, status, done - due,
                                            late=max(0.0, sent - due), done=done,
                                            data=data, retries=retries))
        finally:
            connection.close()

    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            client()
        except BaseException as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes, time.perf_counter() - start
