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
``GET /jobs/<id>[?wait=S]``
    Job record: status (``queued`` / ``running`` / ``done`` / ``error``),
    timing, ``cache_hit``, and the ``equivalence`` report when done.
    With ``?wait=S`` the reply is held until the job finishes or ``S``
    seconds pass (at most ``_MAX_WAIT_S``), so a client learns of a
    finished job at once instead of polling for it.  Only the newest
    ``_MAX_FINISHED`` finished records are kept; an evicted id is 404.
``GET /status``
    Daemon health: worker count, job counters by status, alias and
    dedup hit counts, the cache directory, uptime, and the transport
    counters ``connections`` (accepted), ``requests`` (served) and
    ``waiting`` (held long-polls).
``POST /shutdown``
    Graceful shutdown — held long-polls are answered, idle connections
    closed, in-flight jobs finish, the listener closes, and
    :meth:`VerifyDaemon.serve_forever` returns.

Connections are persistent (HTTP/1.1 keep-alive): one connection serves
requests until the client sends ``Connection: close``, a request is
malformed, it stays idle for ``_IDLE_S`` seconds, or the daemon stops.

Per-job :mod:`repro.obs` spans recorded in the workers are adopted into
the daemon's tracer (one synthetic thread track per job), so a single
Chrome-trace export shows the whole fan-out timeline.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import math
import os
import time
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from ..obs import Tracer
from .cache import canonical_options, source_key
from .jobs import run_verify_job

_MAX_BODY = 64 * 1024 * 1024
#: Longest a ``GET /jobs/<id>?wait=S`` reply is held, in seconds.
_MAX_WAIT_S = 30.0
#: A keep-alive connection idle this many seconds is closed.
_IDLE_S = 60.0
#: Finished job records kept; past this the oldest one is evicted.
_MAX_FINISHED = 1024


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
        #: source_key -> id of the newest job that owns (or will own) its
        #: result.
        self.alias: dict[str, str] = {}
        self.alias_hits = 0
        self.dedup_hits = 0
        self.connections = 0
        self.requests = 0
        self.waiting = 0
        #: Ids of finished jobs, oldest first.
        self._finished: collections.deque[str] = collections.deque()
        #: Connections waiting for their next request.
        self._idle: set[asyncio.StreamWriter] = set()
        self._next_id = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._started_at = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and spin up the worker pool.  The bind comes
        first, so an ``OSError`` it raises leaves no pool behind."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or POST /shutdown), then drain."""
        assert self._server is not None
        await self._stop.wait()
        self._server.close()
        # Since Python 3.12 wait_closed() also waits for every open
        # connection.  Idle ones are closed here; a busy one closes after
        # its reply, and the stop event has answered held long-polls.
        for writer in list(self._idle):
            _close(writer)
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

    def _new_job(self, status: str, alias: str) -> dict:
        self._next_id += 1
        job = {
            "id": f"job-{self._next_id:06d}",
            "status": status,
            "submitted": time.time(),
            "started": None,
            "finished": None,
            "cache_hit": False,
            "seconds": None,
            "_alias": alias,
            "_done": asyncio.Event(),
        }
        self.jobs[job["id"]] = job
        return job

    def _finish(self, job: dict, status: str) -> None:
        """Make ``job`` terminal: answer its held long-polls (the event
        lives only while the job is in flight), and evict
        the oldest finished record (with its alias entry) past
        ``_MAX_FINISHED``.  Queued and running jobs are never evicted."""
        job["status"] = status
        job["finished"] = time.time()
        job.pop("_done").set()
        self._finished.append(job["id"])
        while len(self._finished) > _MAX_FINISHED:
            old = self.jobs.pop(self._finished.popleft())
            if self.alias.get(old["_alias"]) == old["id"]:
                del self.alias[old["_alias"]]

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

    async def _run_job(self, job: dict, payload: dict) -> None:
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
            job["error"] = str(exc)
            self.alias.pop(job["_alias"], None)
            self._finish(job, "error")
            return
        job["seconds"] = reply.get("seconds")
        if self.tracer is not None and reply.get("spans"):
            # One synthetic worker track per job keeps concurrent jobs
            # from interleaving on the exporter's thread lanes.
            self.tracer.adopt(reply["spans"],
                              tid=30_000_000 + int(job["id"][4:]))
        if reply.get("ok"):
            job["cache_hit"] = bool(reply.get("cache_hit"))
            job["key"] = reply.get("key")
            job["hashes"] = reply.get("hashes")
            job["equivalence"] = reply.get("report")
            self._finish(job, "done")
        else:
            job["error"] = reply.get("error")
            job["error_type"] = reply.get("error_type")
            self.alias.pop(job["_alias"], None)
            self._finish(job, "error")

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
                # The alias follows the newest record, so a design that
                # keeps being resubmitted outlives its evicted original.
                self.alias_hits += 1
                job = self._new_job("done", alias)
                job.update(started=time.time(), cache_hit=True,
                           seconds=0.0, key=prior.get("key"),
                           hashes=prior.get("hashes"),
                           equivalence=prior.get("equivalence"))
                self.alias[alias] = job["id"]
                self._finish(job, "done")
                return 200, {"id": job["id"], "status": job["status"],
                             "cache_hit": True}
            if prior["status"] in ("queued", "running"):
                self.dedup_hits += 1
                return 200, {"id": prior_id, "status": prior["status"],
                             "deduplicated": True}
        job = self._new_job("queued", alias)
        self.alias[alias] = job["id"]
        payload = {
            "before": before,
            "after": after,
            "options": options,
            "cache_dir": self.cache_dir,
            "trace": self.tracer is not None,
        }
        asyncio.get_running_loop().create_task(
            self._run_job(job, payload))
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
            "connections": self.connections,
            "requests": self.requests,
            "waiting": self.waiting,
        }

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection's requests in turn; see the module
        docstring for when it closes."""
        self.connections += 1
        try:
            while not self._stop.is_set():
                try:
                    line = await self._next_request(reader, writer)
                    if not line:
                        break
                    status, payload, keep = await self._respond(line, reader)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # noqa: BLE001 — protocol errors
                    status, payload, keep = 400, {"error": str(exc)}, False
                self.requests += 1
                keep = keep and not self._stop.is_set()
                body = json.dumps(payload).encode("utf-8")
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep else 'close'}"
                    f"\r\n\r\n"
                ).encode("ascii")
                writer.write(head + body)
                await writer.drain()
                if not keep:
                    break
        except ConnectionError:
            pass
        finally:
            _close(writer)

    async def _next_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> bytes:
        """The next request line, or ``b""`` once the connection ends.
        Closing the transport — the idle timer or shutdown does — ends
        the wait with EOF."""
        timer = asyncio.get_running_loop().call_later(_IDLE_S, _close, writer)
        self._idle.add(writer)
        try:
            return await reader.readline()
        finally:
            timer.cancel()
            self._idle.discard(writer)

    async def _respond(self, line: bytes, reader: asyncio.StreamReader
                       ) -> tuple[int, dict, bool]:
        """Read the rest of one request and answer it; the flag says
        whether the connection stays open."""
        request = line.decode("ascii", "replace").strip()
        parts = request.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line: {request!r}")
        method, target = parts[0].upper(), parts[1]
        keep = len(parts) > 2 and parts[2].upper() != "HTTP/1.0"
        length = 0
        while True:
            header = (await reader.readline()).decode("ascii",
                                                      "replace").strip()
            if not header:
                break
            name, _, value = header.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                keep = value.strip().lower() != "close"
        if length > _MAX_BODY:
            # The unread body would be taken for the next request.
            return 413, {"error": "request body too large"}, False
        body: dict = {}
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode("utf-8"))
        status, payload = await self._route(method, target, body)
        return status, payload, keep

    async def _route(self, method: str, target: str,
                     body: dict) -> tuple[int, dict]:
        path, _, query = target.partition("?")
        if method == "GET" and path.startswith("/jobs/"):
            try:
                wait = _wait_seconds(query)
            except ValueError as exc:
                return 400, {"error": str(exc)}
            job = self.jobs.get(path[len("/jobs/"):])
            if job is None:
                return 404, {"error": "no such job"}
            done = job.get("_done")
            if wait and done is not None:
                await self._hold(done, wait)
            return 200, self._public_job(job)
        if query:
            return 400, {"error": f"unknown query parameters: {query!r}"}
        if method == "POST" and path == "/submit":
            return self._submit(body)
        if method == "GET" and path == "/status":
            return 200, self._status()
        if method == "POST" and path == "/shutdown":
            self.shutdown()
            return 200, {"ok": True}
        return 404, {"error": f"no route for {method} {path}"}

    async def _hold(self, done: asyncio.Event, seconds: float) -> None:
        """Wait until ``done`` is set, the daemon stops, or ``seconds``
        pass."""
        self.waiting += 1
        waiters = {asyncio.ensure_future(done.wait()),
                   asyncio.ensure_future(self._stop.wait())}
        try:
            await asyncio.wait(waiters, timeout=seconds,
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            self.waiting -= 1
            for waiter in waiters:
                waiter.cancel()


def _close(writer: asyncio.StreamWriter) -> None:
    """End a connection.  Pool workers forked while it was open hold
    copies of its socket, so close() alone would not end it for the
    client; shutting down the write side first sends the FIN."""
    with contextlib.suppress(OSError):
        writer.write_eof()
    writer.close()


def _wait_seconds(query: str) -> float:
    """The hold time a ``GET /jobs/<id>`` query asks for, capped at
    ``_MAX_WAIT_S``; 0 without ``wait``.  Raises ValueError on any other
    key or a value that is not a finite number of seconds >= 0."""
    if not query:
        return 0.0
    fields = urllib.parse.parse_qs(query, keep_blank_values=True,
                                   strict_parsing=True)
    unknown = sorted(set(fields) - {"wait"})
    if unknown:
        raise ValueError(f"unknown query parameters: {', '.join(unknown)}")
    (text, *more) = fields["wait"]
    if more:
        raise ValueError("'wait' is given more than once")
    try:
        wait = float(text)
    except ValueError:
        wait = math.nan
    if not (math.isfinite(wait) and wait >= 0):
        raise ValueError(f"'wait' expects a finite number of seconds >= 0, "
                         f"got {text!r}")
    return min(wait, _MAX_WAIT_S)


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
