"""A small HTTP/1.1 load generator over persistent connections.

One thread per connection, each with its own keep-alive socket, so the
generator adds little more than a ``sendall`` and a ``recv`` per request.
Two traffic shapes:

* :func:`open_loop` sends request ``i`` when it is due (``start + i /
  rate``) on whichever connection is free, and times it from its due
  time, so a stall also counts against the requests queued behind it.
  It also records how late the generator itself sent each request
  (``sent - max(due, connection free)``).
* :func:`closed_loop` sends each connection's next request as soon as the
  previous reply arrives, for a fixed duration.

A request that fails (refused, reset, timed out, or not HTTP 200) has
latency ``inf``; it counts as missing every latency limit.
"""

from __future__ import annotations

import itertools
import math
import socket
import threading
import time

TIMEOUT_S = 10.0


def get(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()


def post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}"
        "\r\n\r\n"
    )
    return head.encode() + body


class Connection:
    """One keep-alive connection; :meth:`request` returns (status, body)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock = None
        self.buffer = b""

    def _connect(self) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def _fill(self, buffer: bytes) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return buffer + chunk

    def request(self, raw: bytes) -> tuple[int, bytes]:
        if self.sock is None:
            self._connect()
        try:
            self.sock.sendall(raw)
            buffer = self.buffer
            end = buffer.find(b"\r\n\r\n")
            while end < 0:
                buffer = self._fill(buffer)
                end = buffer.find(b"\r\n\r\n")
            head = buffer[:end].decode("latin-1")
            rest = buffer[end + 4:]
            status = int(head.split(" ", 2)[1])
            length = 0
            for line in head.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            while len(rest) < length:
                rest = self._fill(rest)
            self.buffer = rest[length:]
            return status, rest[:length]
        except (OSError, ValueError):
            self.close()
            raise

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


#: ``Trace.status`` of a request whose connection failed.
REFUSED = -1


class Trace:
    """Per-request outcomes of one traffic phase (index = request)."""

    def __init__(self, size: int) -> None:
        self.latency = [math.inf] * size
        self.late = [0.0] * size
        #: HTTP status, ``REFUSED``, or ``None`` when never sent.
        self.status = [None] * size
        self.body = [None] * size
        self.elapsed = 0.0

    def record(self, index, connection, raw, started, keep_body) -> float:
        """Send one request and store its outcome; returns when done."""
        try:
            status, body = connection.request(raw)
        except (OSError, ValueError):
            self.status[index] = REFUSED
            return time.perf_counter()
        done = time.perf_counter()
        self.status[index] = status
        if status == 200:
            self.latency[index] = done - started
        if keep_body(index):
            self.body[index] = body
        return done

    @property
    def sent(self) -> int:
        return sum(status is not None for status in self.status)

    @property
    def completed(self) -> int:
        return sum(status == 200 for status in self.status)

    @property
    def refused(self) -> int:
        return sum(status == REFUSED for status in self.status)


def _run_threads(port: int, connections: int, worker) -> float:
    links = [Connection(port) for _ in range(connections)]
    for link in links:
        link._connect()
    threads = [
        threading.Thread(target=worker, args=(link,), daemon=True)
        for link in links
    ]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for link in links:
            link.close()
    return time.perf_counter() - start


def open_loop(port, requests, rate, keep_body, connections=2) -> Trace:
    """Send ``requests`` at ``rate`` per second, each timed from when it
    was due."""
    trace = Trace(len(requests))
    counter = itertools.count()
    start = time.perf_counter() + 0.01

    def worker(link):
        free = time.perf_counter()
        while (index := next(counter)) < len(requests):
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            trace.late[index] = sent - max(due, free)
            free = trace.record(index, link, requests[index], due, keep_body)

    trace.elapsed = _run_threads(port, connections, worker)
    return trace


def closed_loop(port, requests, seconds, keep_body, connections=2) -> Trace:
    """Each connection sends its next request as soon as the previous
    reply arrives, taking ``requests`` in order, for ``seconds`` (or
    until they run out)."""
    trace = Trace(len(requests))
    counter = itertools.count()
    deadline = time.perf_counter() + seconds

    def worker(link):
        while time.perf_counter() < deadline:
            index = next(counter)
            if index >= len(requests):
                break
            trace.record(
                index, link, requests[index], time.perf_counter(), keep_body
            )

    trace.elapsed = _run_threads(port, connections, worker)
    return trace
