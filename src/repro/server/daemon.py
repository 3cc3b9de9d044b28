"""The verification daemon: asyncio HTTP/JSON front, multiprocessing back.

:class:`VerifyDaemon` is ROADMAP item 3's long-running service.  A
hand-rolled (stdlib-only) HTTP/1.1 server accepts JSON job submissions
and shards the actual work — elaborate, hash, cache-check, staged CEC —
across a :class:`~concurrent.futures.ProcessPoolExecutor` of
``workers`` processes via :func:`~repro.server.jobs.run_verify_job`.

Endpoints:

``POST /submit``
    Body ``{"before": <verilog>, "after": <verilog>, "options": {...}}``.
    Replies ``{"id": ..., "status": ...}`` immediately.  Three paths:
    a *source-alias hit* (identical text + options seen before) completes
    the job instantly from the daemon's in-memory result, never touching
    the pool; an *in-flight duplicate* returns the already-running job's
    id (``"deduplicated": true``) so a thundering herd of identical
    submissions costs one solve; everything else queues on the pool,
    where the worker still gets a shot at the shared on-disk
    content-hash cache before solving.
``GET /jobs/<id>``
    Job record: status (``queued`` / ``running`` / ``done`` / ``error``),
    timing, ``cache_hit``, and the ``equivalence`` report when done.
``GET /status``
    Daemon health: worker count, job counters by status, cache stats,
    uptime.
``POST /shutdown``
    Graceful shutdown — in-flight jobs finish, the listener closes, and
    :meth:`VerifyDaemon.serve_forever` returns.

Per-job :mod:`repro.obs` spans recorded in the workers are adopted into
the daemon's tracer (one synthetic thread track per job), so a single
Chrome-trace export shows the whole fan-out timeline.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from ..obs import Tracer
from .cache import canonical_options, source_key
from .jobs import run_verify_job

_MAX_BODY = 64 * 1024 * 1024


class VerifyDaemon:
    """A verification server instance; see the module docstring.

    ``workers`` defaults to ``os.cpu_count()``.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`port` after
    :meth:`start`).  ``cache_dir`` enables the shared on-disk result
    cache; ``tracer`` (optional) collects daemon + worker spans.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.host = host
        self.port = port
        self.workers = workers or os.cpu_count() or 1
        self.cache_dir = cache_dir
        self.tracer = tracer
        self.jobs: dict[str, dict] = {}
        #: source_key -> id of the job that owns (or will own) its result.
        self.alias: dict[str, str] = {}
        self.alias_hits = 0
        self.dedup_hits = 0
        self._next_id = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._started_at = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and spin up the worker pool."""
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or POST /shutdown), then drain."""
        assert self._server is not None
        await self._stop.wait()
        self._server.close()
        await self._server.wait_closed()
        # Let queued jobs finish: ProcessPoolExecutor.shutdown(wait=True)
        # blocks, so push it off the event loop.
        pool = self._pool
        self._pool = None
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, pool.shutdown)

    def shutdown(self) -> None:
        self._stop.set()

    # -- job bookkeeping ----------------------------------------------------

    def _new_job(self, status: str) -> dict:
        self._next_id += 1
        job = {
            "id": f"job-{self._next_id:06d}",
            "status": status,
            "submitted": time.time(),
            "started": None,
            "finished": None,
            "cache_hit": False,
            "seconds": None,
        }
        self.jobs[job["id"]] = job
        return job

    def _public_job(self, job: dict) -> dict:
        return {k: v for k, v in job.items() if not k.startswith("_")}

    def _renew_pool(self, broken: ProcessPoolExecutor
                    ) -> Optional[ProcessPoolExecutor]:
        """Replace ``broken`` with a fresh pool, unless another job already
        did.  A worker that dies (killed, out of memory) breaks its whole
        executor for good, so without this every later job would fail."""
        if self._pool is broken:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            broken.shutdown(wait=False)
        return self._pool

    async def _run_job(self, job: dict, payload: dict,
                       alias: str) -> None:
        job["status"] = "running"
        job["started"] = time.time()
        loop = asyncio.get_running_loop()
        pool = self._pool
        try:
            try:
                future = loop.run_in_executor(pool, run_verify_job, payload)
            except BrokenProcessPool:
                # A worker died while the pool was idle: this job never
                # ran, so it goes to a fresh pool.
                pool = self._renew_pool(pool)
                future = loop.run_in_executor(pool, run_verify_job, payload)
            reply = await future
        except Exception as exc:  # noqa: BLE001 — pool died / cancelled
            if isinstance(exc, BrokenProcessPool):
                # A worker died under this job; later jobs get a new pool.
                self._renew_pool(pool)
            job["status"] = "error"
            job["error"] = str(exc)
            job["finished"] = time.time()
            self.alias.pop(alias, None)
            return
        job["finished"] = time.time()
        job["seconds"] = reply.get("seconds")
        if self.tracer is not None and reply.get("spans"):
            # One synthetic worker track per job keeps concurrent jobs
            # from interleaving on the exporter's thread lanes.
            self.tracer.adopt(reply["spans"],
                              tid=30_000_000 + int(job["id"][4:]))
        if reply.get("ok"):
            job["status"] = "done"
            job["cache_hit"] = bool(reply.get("cache_hit"))
            job["key"] = reply.get("key")
            job["hashes"] = reply.get("hashes")
            job["equivalence"] = reply.get("report")
        else:
            job["status"] = "error"
            job["error"] = reply.get("error")
            job["error_type"] = reply.get("error_type")
            self.alias.pop(alias, None)

    def _submit(self, body: dict) -> tuple[int, dict]:
        before = body.get("before")
        after = body.get("after")
        if not isinstance(before, str) or not isinstance(after, str):
            return 400, {"error": "'before' and 'after' must be "
                                  "Verilog source strings"}
        try:
            options = canonical_options(body.get("options"))
        except ValueError as exc:
            return 400, {"error": str(exc)}
        alias = source_key(before, after, options)
        prior_id = self.alias.get(alias)
        if prior_id is not None:
            prior = self.jobs[prior_id]
            if prior["status"] == "done":
                # Source-alias hit: a completed result for byte-identical
                # input — answer from memory without touching the pool.
                self.alias_hits += 1
                job = self._new_job("done")
                now = time.time()
                job.update(started=now, finished=now, cache_hit=True,
                           seconds=0.0, key=prior.get("key"),
                           hashes=prior.get("hashes"),
                           equivalence=prior.get("equivalence"))
                return 200, {"id": job["id"], "status": job["status"],
                             "cache_hit": True}
            if prior["status"] in ("queued", "running"):
                self.dedup_hits += 1
                return 200, {"id": prior_id, "status": prior["status"],
                             "deduplicated": True}
        job = self._new_job("queued")
        self.alias[alias] = job["id"]
        payload = {
            "before": before,
            "after": after,
            "options": options,
            "cache_dir": self.cache_dir,
            "trace": self.tracer is not None,
        }
        asyncio.get_running_loop().create_task(
            self._run_job(job, payload, alias))
        return 200, {"id": job["id"], "status": job["status"]}

    def _status(self) -> dict:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job["status"]] = counts.get(job["status"], 0) + 1
        return {
            "workers": self.workers,
            "jobs": counts,
            "total_jobs": len(self.jobs),
            "alias_hits": self.alias_hits,
            "dedup_hits": self.dedup_hits,
            "cache_dir": self.cache_dir,
            "uptime_seconds": time.monotonic() - self._started_at,
        }

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 — protocol errors
            status, payload = 400, {"error": str(exc)}
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> tuple[int, dict]:
        request = (await reader.readline()).decode("ascii",
                                                   "replace").strip()
        if not request:
            return 400, {"error": "empty request"}
        parts = request.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line: {request!r}"}
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = (await reader.readline()).decode("ascii",
                                                    "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > _MAX_BODY:
            return 413, {"error": "request body too large"}
        body: dict = {}
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode("utf-8"))

        if method == "POST" and path == "/submit":
            return self._submit(body)
        if method == "GET" and path.startswith("/jobs/"):
            job = self.jobs.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": "no such job"}
            return 200, self._public_job(job)
        if method == "GET" and path == "/status":
            return 200, self._status()
        if method == "POST" and path == "/shutdown":
            self.shutdown()
            return 200, {"ok": True}
        return 404, {"error": f"no route for {method} {path}"}


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            413: "Payload Too Large"}


async def run_daemon(host: str = "127.0.0.1", port: int = 0,
                     workers: Optional[int] = None,
                     cache_dir: Optional[str] = None,
                     tracer: Optional[Tracer] = None,
                     ready=None) -> VerifyDaemon:
    """Start a daemon and serve until shutdown; returns the daemon.

    ``ready`` (optional callable) is invoked with the daemon once the
    port is bound — ``python -m repro.server`` uses it to print the
    listening address, tests use it to capture the ephemeral port.
    """
    daemon = VerifyDaemon(host=host, port=port, workers=workers,
                          cache_dir=cache_dir, tracer=tracer)
    await daemon.start()
    if ready is not None:
        ready(daemon)
    await daemon.serve_forever()
    return daemon
