"""A minimal stdlib client for the verification daemon.

:class:`ServerClient` wraps the daemon's four endpoints with HTTP/1.1
requests written straight to a TCP socket — no dependencies, safe to
use from tests, CI smoke scripts, and the ``server_mix`` benchmark
workload.  ``submit`` + ``wait`` is the common round trip::

    client = ServerClient(port=8347)
    job = client.submit(before_src, after_src, {"certify": True})
    record = client.wait(job["id"])
    assert record["equivalence"]["equivalent"]

Each thread that uses a client gets its own persistent connection, so
one client can be shared across threads.  A request goes out in one
``sendall`` with Nagle's algorithm off, and the reply is read by its
status line and ``Content-Length``: the daemon's replies are always
JSON bodies of known length.  A request is retried once, on a fresh
connection, only when the daemon closed a reused connection before
replying (an idle keep-alive connection it dropped).  ``wait``
long-polls ``GET /jobs/<id>?wait=S``: the daemon replies as soon as the
job finishes, so no polling interval adds to the latency.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Optional


class ServerError(Exception):
    """A non-2xx reply from the daemon (carries status and body)."""

    def __init__(self, status: int, body: dict) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = body


class ServerClient:
    """Blocking JSON client for one :class:`~repro.server.VerifyDaemon`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8347,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n")
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n")
        message = (head + "\r\n").encode("ascii") + payload
        sock = getattr(self._local, "sock", None)
        reused = sock is not None
        try:
            if not reused:
                sock = self._connect()
            try:
                status, keep, raw = _exchange(sock, message)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                # The daemon closed this idle connection before the
                # request reached it, so sending it again is safe.
                self.close()
                status, keep, raw = _exchange(self._connect(), message)
        except BaseException:
            self.close()
            raise
        if not keep:
            self.close()
        data = json.loads(raw.decode("utf-8"))
        if status >= 400:
            raise ServerError(status, data)
        return data

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._local.sock = sock
        return sock

    def close(self) -> None:
        """Close the calling thread's connection (a later request opens
        a new one)."""
        sock = getattr(self._local, "sock", None)
        self._local.sock = None
        if sock is not None:
            sock.close()

    def submit(self, before: str, after: str,
               options: Optional[dict] = None) -> dict:
        """Submit one equivalence-check job; returns ``{"id", "status"}``
        (plus ``cache_hit`` / ``deduplicated`` when served early)."""
        body = {"before": before, "after": after}
        if options:
            body["options"] = options
        return self._request("POST", "/submit", body)

    def job(self, job_id: str) -> dict:
        """The current job record."""
        return self._request("GET", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.02) -> dict:
        """Long-poll until the job reaches ``done`` or ``error``.

        Each request is held by the daemon for at most half the socket
        timeout.  ``poll`` is accepted for compatibility and unused: the
        daemon answers the moment the job finishes."""
        deadline = time.monotonic() + timeout
        while True:
            hold = max(0.0, min(deadline - time.monotonic(),
                                self.timeout / 2))
            record = self._request("GET", f"/jobs/{job_id}?wait={hold:.3f}")
            if record["status"] in ("done", "error"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['status']} after "
                    f"{timeout:.0f}s")

    def verify(self, before: str, after: str,
               options: Optional[dict] = None,
               timeout: float = 300.0) -> dict:
        """Submit and wait — the one-call convenience path."""
        job = self.submit(before, after, options)
        return self.wait(job["id"], timeout=timeout)

    def status(self) -> dict:
        return self._request("GET", "/status")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    def ping(self, timeout: float = 10.0, poll: float = 0.05) -> dict:
        """Wait for the daemon to come up (CI smoke startup barrier)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.status()
            except (OSError, ValueError):
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)


def _exchange(sock: socket.socket, message: bytes
              ) -> tuple[int, bool, bytearray]:
    """Send one request and read its reply: ``(status, whether the
    connection stays open, body)``.  Raises ConnectionResetError only
    when the daemon closed the connection before any byte of the reply,
    the one case in which the request may be sent again."""
    sock.sendall(message)
    data = bytearray()
    while (end := data.find(b"\r\n\r\n")) < 0:
        chunk = sock.recv(65536)
        if not chunk:
            if not data:
                raise ConnectionResetError("the daemon closed the "
                                           "connection")
            raise ConnectionError("the daemon closed the connection in "
                                  "the middle of a reply")
        data += chunk
    status_line, *headers = data[:end].decode("latin-1").split("\r\n")
    status = int(status_line.split()[1])
    length, keep = 0, True
    for header in headers:
        name, _, value = header.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "connection":
            keep = value.strip().lower() != "close"
    body = data[end + 4:]
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("the daemon closed the connection in "
                                  "the middle of a reply")
        body += chunk
    return status, keep, body
