"""A minimal stdlib client for the verification daemon.

:class:`ServerClient` wraps the daemon's four endpoints with plain
:mod:`http.client` calls — no dependencies, safe to use from tests, CI
smoke scripts, and the ``server_mix`` benchmark workload.  ``submit`` +
``wait`` is the common round trip::

    client = ServerClient(port=8347)
    job = client.submit(before_src, after_src, {"certify": True})
    record = client.wait(job["id"])
    assert record["equivalence"]["equivalent"]
"""

from __future__ import annotations

import http.client
import json
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

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = json.dumps(body).encode("utf-8") \
                if body is not None else None
            headers = {"Content-Type": "application/json"} \
                if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
            if response.status >= 400:
                raise ServerError(response.status, data)
            return data
        finally:
            conn.close()

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
        """Poll until the job reaches ``done`` or ``error``."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "error"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['status']} after "
                    f"{timeout:.0f}s")
            time.sleep(poll)

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
