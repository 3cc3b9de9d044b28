"""The verification daemon: asyncio HTTP/JSON front, multiprocessing back.

:class:`VerifyDaemon` is ROADMAP item 3's long-running service.  A
hand-rolled (stdlib-only) HTTP/1.1 server accepts JSON job submissions
and runs the actual work — elaborate, hash, cache-check, staged CEC —
on ``workers`` forked worker processes via
:func:`~repro.server.jobs.run_verify_job`.  Each worker has its own
duplex pipe, which the event loop reads directly: a submitted job waits
on a FIFO until a worker is idle, is sent down that worker's pipe, and
is finished on the loop when the reply comes back.  A worker that dies
(killed, out of memory) fails only the job it held and is forked again.

Endpoints:

``POST /submit``
    Body ``{"before": <verilog>, "after": <verilog>, "options": {...}}``.
    Replies ``{"id": ..., "status": ...}`` immediately.  Three paths:
    a *source-alias hit* (identical text + options seen before) completes
    the job instantly from the daemon's in-memory result, never touching
    a worker; an *in-flight duplicate* returns the already-running job's
    id (``"deduplicated": true``) so a thundering herd of identical
    submissions costs one solve; everything else queues for a worker,
    which still gets a shot at the shared on-disk content-hash cache
    before solving.
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
    closed, every connection handler ends, in-flight jobs finish, the
    listener closes, and :meth:`VerifyDaemon.serve_forever` returns.

Connections are persistent (HTTP/1.1 keep-alive): one connection serves
requests until the client sends ``Connection: close``, a request is
malformed, it stays idle for ``_IDLE_S`` seconds, the rest of a request
does not arrive within ``_REQUEST_S`` seconds of its first line, or the
daemon stops.

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
import multiprocessing
import os
import signal
import time
import urllib.parse
from multiprocessing.connection import Connection
from typing import Optional

from ..obs import Tracer
from .cache import canonical_options, source_key
from .jobs import run_verify_job

_MAX_BODY = 64 * 1024 * 1024
#: Longest a ``GET /jobs/<id>?wait=S`` reply is held, in seconds.
_MAX_WAIT_S = 30.0
#: A keep-alive connection idle this many seconds is closed.
_IDLE_S = 60.0
#: Once a request line has arrived, the client has this many seconds to
#: send the rest of the request; past that the connection is closed.
#: This bounds how long a stalled client can hold shutdown, which waits
#: for every connection handler.
_REQUEST_S = 30.0
#: Finished job records kept; past this the oldest one is evicted.
_MAX_FINISHED = 1024
#: Workers are forked, not spawned: a spawned or forkserver worker
#: re-imports the package before its first job, which more than doubles
#: the daemon's start-up time.  Named explicitly because Python 3.14
#: changes the default start method.
_FORK = multiprocessing.get_context("fork")


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
        #: The handler task of every open connection.  The loop holds
        #: tasks weakly, and shutdown awaits these.
        self._handlers: set[asyncio.Task] = set()
        self._next_id = 0
        #: One slot per worker; ``None`` while a dead worker awaits its
        #: replacement.
        self._workers: list[Optional[_Worker]] = []
        #: Submitted ``(job, payload)`` pairs waiting for an idle worker.
        self._queue: collections.deque[tuple[dict, dict]] = \
            collections.deque()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        self._started_at = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, fork the workers, then start serving.  The
        bind comes first, so an ``OSError`` it raises leaves no worker
        behind; the workers fork before any connection is accepted, so
        none of them holds a client's socket."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, start_serving=False)
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [self._fork() for _ in range(self.workers)]
        await self._server.start_serving()
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or POST /shutdown), then drain."""
        assert self._server is not None
        await self._stop.wait()
        self._server.close()
        # Idle connections are closed here; a busy one closes after its
        # reply, the stop event has answered held long-polls, and a
        # stalled request times out after _REQUEST_S.  Since Python 3.12
        # wait_closed() also waits for every handler; before it, only the
        # wait on the handlers' own tasks does.
        for writer in list(self._idle):
            _close(writer)
        await self._server.wait_closed()
        if self._handlers:
            await asyncio.wait(list(self._handlers))
        # Let queued and running jobs finish, then stop the workers.
        while pending := [job["_done"] for job in self.jobs.values()
                          if "_done" in job]:
            await pending[0].wait()
        loop = asyncio.get_running_loop()
        workers = [w for w in self._workers if w is not None]
        self._workers = []
        for worker in workers:
            loop.remove_reader(worker.conn.fileno())
            with contextlib.suppress(OSError):
                worker.conn.send(None)
            worker.conn.close()
        # join() blocks, so it runs off the loop.
        for worker in workers:
            await loop.run_in_executor(None, worker.process.join)

    def shutdown(self) -> None:
        self._stop.set()

    # -- workers ------------------------------------------------------------

    def _fork(self) -> _Worker:
        """Start one worker process and watch its end of the pipe."""
        conn, child_conn = _FORK.Pipe()
        process = _FORK.Process(target=_serve_jobs, args=(child_conn,),
                                name="verify-worker", daemon=True)
        try:
            process.start()
        finally:
            child_conn.close()
        worker = _Worker(process, conn)
        asyncio.get_running_loop().add_reader(conn.fileno(), self._on_reply,
                                              worker)
        return worker

    def _dispatch(self) -> None:
        """Fork a worker into each slot a dead one left, then send queued
        jobs, oldest first, to idle workers."""
        for slot, worker in enumerate(self._workers):
            if worker is None:
                try:
                    worker = self._workers[slot] = self._fork()
                except OSError as exc:
                    # The slot stays empty until the next dispatch.
                    if self._queue:
                        job, _ = self._queue.popleft()
                        self._fail(job, error=f"cannot start a worker: {exc}",
                                   error_type=type(exc).__name__)
                    continue
            if worker.job is not None or not self._queue:
                continue
            job, payload = self._queue.popleft()
            try:
                # Looked up per job, so a replaced module-level
                # run_verify_job reaches the workers already forked.
                worker.conn.send((run_verify_job, payload))
            except OSError:
                # The worker died while idle: the job never reached it.
                self._queue.appendleft((job, payload))
                self._lost(worker)
                return
            worker.job = job
            job["status"] = "running"
            job["started"] = time.time()

    def _on_reply(self, worker: _Worker) -> None:
        """The loop's reader for one worker's pipe: finish the job it
        held with its reply, or fail the job if the worker died."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        job, worker.job = worker.job, None
        self._complete(job, reply)
        self._dispatch()

    def _lost(self, worker: _Worker) -> None:
        """``worker`` exited: fail the job it held, and fork its
        replacement."""
        asyncio.get_running_loop().remove_reader(worker.conn.fileno())
        worker.conn.close()
        # The pipe closes as the process exits, so kill() finds it dead
        # or dying; join() reaps it.
        worker.process.kill()
        worker.process.join()
        if worker.job is not None:
            self._fail(worker.job,
                       error=f"worker process {worker.process.pid} exited "
                             f"(exit code {worker.process.exitcode})")
        self._workers[self._workers.index(worker)] = None
        self._dispatch()

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

    def _fail(self, job: dict, **fields) -> None:
        """Finish ``job`` as ``error``, with ``fields`` (``error`` and,
        from a worker's reply, ``error_type``) in its record."""
        job.update(fields)
        self.alias.pop(job["_alias"], None)
        self._finish(job, "error")

    def _public_job(self, job: dict) -> dict:
        return {k: v for k, v in job.items() if not k.startswith("_")}

    def _complete(self, job: dict, reply: dict) -> None:
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
            self._fail(job, error=reply.get("error"),
                       error_type=reply.get("error_type"))

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
                # input — answer from memory without touching a worker.
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
        self._queue.append((job, payload))
        self._dispatch()
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
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self.connections += 1
        try:
            while not self._stop.is_set():
                try:
                    line = await self._next_request(reader, writer)
                    if not line:
                        break
                    status, payload, keep = await self._respond(
                        line, reader, writer)
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

    async def _respond(self, line: bytes, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter
                       ) -> tuple[int, dict, bool]:
        """Read the rest of one request and answer it; the flag says
        whether the connection stays open.  A request not read in full
        within ``_REQUEST_S`` has its connection closed, which ends the
        read."""
        request = line.decode("ascii", "replace").strip()
        parts = request.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line: {request!r}")
        method, target = parts[0].upper(), parts[1]
        keep = len(parts) > 2 and parts[2].upper() != "HTTP/1.0"
        length = 0
        timer = asyncio.get_running_loop().call_later(_REQUEST_S, _close,
                                                      writer)
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    # EOF, from the client or the timer: the request is
                    # incomplete, so it is not served.
                    raise asyncio.IncompleteReadError(b"", None)
                header = raw.decode("ascii", "replace").strip()
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
        finally:
            timer.cancel()
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
    """End a connection.  The workers forked at start-up hold no client
    socket, but one forked to replace a dead worker holds a copy of every
    connection open at that moment, so close() alone would not end it
    for the client; shutting down the write side first sends the FIN."""
    with contextlib.suppress(OSError):
        writer.write_eof()
    writer.close()


class _Worker:
    """One worker process, the daemon's end of its pipe, and the job it
    is running (``None`` while idle)."""

    __slots__ = ("process", "conn", "job")

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.job: Optional[dict] = None


def _serve_jobs(conn: Connection) -> None:
    """A worker process's loop: run each ``(function, payload)`` the
    daemon sends and reply with its result, until the daemon sends
    ``None`` or closes the pipe.  A job that raises costs that job only:
    the exception is the reply."""
    # The worker was forked from the daemon's event-loop thread: drop
    # the loop's signal wake-up pipe, so a signal sent to this process
    # is not taken for one sent to the daemon.  Ctrl-C reaches the whole
    # process group; the daemon then drains and stops its workers.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            task = conn.recv()
            if task is None:
                return
            function, payload = task
            reply = function(payload)
        except EOFError:
            return
        except Exception as exc:  # noqa: BLE001 — one job, not the worker
            reply = {"ok": False, "error": str(exc),
                     "error_type": type(exc).__name__}
        conn.send(reply)


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
