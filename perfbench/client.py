"""A lean HTTP/1.1 load generator over raw keep-alive sockets.

It runs in the benchmark process, never in the server's, and opens at
most as many connections as the host has usable cores.  Two shapes:

* :func:`closed_loop` — one connection, each request sent when the
  previous answer arrived (callers that each wait for a reply);
* :func:`open_loop` — requests due on a seeded Poisson schedule,
  written on time whatever the server is doing (pipelined over the
  connections, one reader thread per connection), and timed from when
  each was *due*, so a stall is charged to every request it delayed.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nhost: bench\r\n"
        f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection with a buffered response reader."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def feed(self, chunk: bytes) -> None:
        self._buffer += chunk

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.feed(chunk)

    def parse(self) -> Optional[Response]:
        """One complete response off the buffer, or None."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = self._buffer[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body_end = end + 4 + length
        if len(self._buffer) < body_end:
            return None
        body = self._buffer[end + 4 : body_end]
        self._buffer = self._buffer[body_end:]
        return Response(int(lines[0].split(" ", 2)[1]), headers, body)

    def read_response(self) -> Response:
        response = self.parse()
        while response is None:
            self._fill()
            response = self.parse()
        return response

    def request(self, raw: bytes) -> Response:
        self.send(raw)
        return self.read_response()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@contextlib.contextmanager
def no_gc():
    """Collect once, then keep the collector out of the timed loop (a
    full collection over thousands of kept responses stalls the client
    for milliseconds)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class Sample:
    """One answered request: its index in the input stream, latency
    (seconds, from due time in an open loop) and the response."""

    index: int
    latency_s: float
    response: Response


def closed_loop(
    connection: Connection,
    requests: Sequence[bytes],
    duration_s: float,
    between: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Sample], float]:
    """Send ``requests`` in order (cycling) for ``duration_s``.

    ``between(i)`` runs after the ``i``-th answer, outside the timed
    region of any request.  Returns the samples and the elapsed time.
    """
    samples: List[Sample] = []
    with no_gc():
        started = time.perf_counter()
        deadline = started + duration_s
        index = 0
        now = started
        while now < deadline:
            raw = requests[index % len(requests)]
            sent = time.perf_counter()
            response = connection.request(raw)
            now = time.perf_counter()
            samples.append(Sample(index, now - sent, response))
            if between is not None:
                between(index)
                now = time.perf_counter()
            index += 1
    return samples, now - started


def poisson_schedule(rate: float, duration_s: float, seed: int) -> List[float]:
    """Due offsets (seconds) of a Poisson arrival process at ``rate``,
    conditioned on exactly ``rate * duration_s`` arrivals (sorted
    uniform times), so every run offers the same load."""
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, duration_s) for _ in range(round(rate * duration_s)))


@dataclass
class OpenLoopResult:
    samples: List[Sample] = field(default_factory=list)
    #: How late each request was written, seconds (generator lag).
    late_s: List[float] = field(default_factory=list)
    #: Requests still unanswered when the schedule ended.
    backlog_at_end: int = 0
    #: Time from the last due instant to the last answer, seconds.
    drain_s: float = 0.0
    sent: int = 0
    failed: int = 0


def open_loop(
    host: str,
    port: int,
    requests: Sequence[bytes],
    rate: float,
    duration_s: float,
    seed: int,
    connections: int,
) -> OpenLoopResult:
    """Offer ``rate`` requests/s for ``duration_s`` over ``connections``
    pipelined connections; request ``i`` is ``requests[i %
    len(requests)]`` and goes out on connection ``i % connections``.

    One thread sends and reads (a selector wakes it for whichever comes
    first), so no interpreter-lock hand-off delays a send or a receive
    timestamp.
    """
    schedule = poisson_schedule(rate, duration_s, seed)
    conns = [Connection(host, port) for _ in range(connections)]
    pending: List[collections.deque] = [collections.deque() for _ in conns]
    selector = selectors.DefaultSelector()
    for slot, conn in enumerate(conns):
        conn.sock.setblocking(False)
        selector.register(conn.sock, selectors.EVENT_READ, slot)
    result = OpenLoopResult()
    outstanding = 0
    last_answer = 0.0

    def receive(slot: int) -> None:
        nonlocal outstanding, last_answer
        conn = conns[slot]
        try:
            chunk = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        now = time.perf_counter()
        if not chunk:
            result.failed += len(pending[slot])
            outstanding -= len(pending[slot])
            pending[slot].clear()
            selector.unregister(conn.sock)
            return
        conn.feed(chunk)
        response = conn.parse()
        while response is not None:
            index, due = pending[slot].popleft()
            result.samples.append(Sample(index, now - due, response))
            outstanding -= 1
            last_answer = now
            response = conn.parse()

    def send(i: int, due: float) -> None:
        nonlocal outstanding
        conn = conns[i % len(conns)]
        pending[i % len(conns)].append((i, due))
        conn.sock.setblocking(True)
        conn.send(requests[i % len(requests)])
        conn.sock.setblocking(False)
        result.late_s.append(max(time.perf_counter() - due, 0.0))
        result.sent += 1
        outstanding += 1

    try:
        with no_gc():
            started = time.perf_counter()
            schedule_end = started + duration_s
            for i, offset_s in enumerate(schedule):
                due = started + offset_s
                while True:
                    wait = due - time.perf_counter()
                    if wait <= 0:
                        break
                    for key, _ in selector.select(wait):
                        receive(key.data)
                send(i, due)
            while time.perf_counter() < schedule_end:
                for key, _ in selector.select(schedule_end - time.perf_counter()):
                    receive(key.data)
            result.backlog_at_end = outstanding
            while outstanding > 0:
                events = selector.select(30.0)
                if not events:
                    raise TimeoutError("open-loop answers stopped arriving")
                for key, _ in events:
                    receive(key.data)
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    result.samples.sort(key=lambda sample: sample.index)
    result.drain_s = max(last_answer - schedule_end, 0.0)
    return result
