"""Tests for ``repro.server``: cache keys, worker jobs, daemon, client."""

import asyncio
import contextlib
import functools
import http.client
import io
import json
import os
import signal
import socket
import threading
import time

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import run as run_cli
from repro.netlist import elaborate
from repro.server import daemon as daemon_module
from repro.server import (
    OPTION_DEFAULTS,
    CacheError,
    ResultCache,
    ServerClient,
    ServerError,
    canonical_options,
    content_key,
    run_daemon,
    run_verify_job,
    source_key,
)

from test_serialize import designs

ADDER = """
module adder #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b, input cin,
  output [W:0] sum
);
  assign sum = a + b + cin;
endmodule
"""

# Same function, different association order: not byte-identical, not
# hash-identical pre-optimization at every node, but CEC-equivalent.
ADDER_B = """
module adder #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b, input cin,
  output [W:0] sum
);
  assign sum = (a + cin) + b;
endmodule
"""

ADDER_BAD = """
module adder #(parameter W = 4) (
  input [W-1:0] a, input [W-1:0] b, input cin,
  output [W:0] sum
);
  assign sum = a + b;
endmodule
"""

BROKEN_SOURCE = "module oops (input a, output b)\n  this is not verilog\n"


# ---------------------------------------------------------------------------
# Option canonicalisation and cache keys
# ---------------------------------------------------------------------------

def test_canonical_options_defaults():
    assert canonical_options(None) == OPTION_DEFAULTS
    assert canonical_options({}) == OPTION_DEFAULTS


def test_canonical_options_rejects_unknown_keys():
    # "encoding" and "preprocess" are retired options: the miter is
    # always the shared AIG, and CEC has no variable-elimination stage.
    for options in ({"certfy": True}, {"encoding": "aig"},
                    {"preprocess": False}):
        with pytest.raises(ValueError,
                           match="unknown verification options"):
            canonical_options(options)


def test_canonical_options_rejects_jobs():
    # A job runs on one worker, so "jobs" is not an option: it is
    # rejected rather than ignored, and never reaches a cache key.
    with pytest.raises(ValueError, match="unknown verification options"):
        canonical_options({"jobs": 8})
    with pytest.raises(ValueError, match="unknown verification options"):
        content_key("a" * 64, "b" * 64, {"certify": True, "jobs": 4})


def test_canonical_options_coerces_and_orders():
    a = canonical_options({"certify": 1})
    b = canonical_options({"certify": True})
    assert a == b == {"certify": True}
    assert a["certify"] is True
    assert canonical_options({"certify": 0})["certify"] is False


def test_content_key_tracks_hashes_and_options():
    netlist_a = elaborate(ADDER, top="adder")
    netlist_b = elaborate(ADDER_B, top="adder")
    options = canonical_options(None)
    key_aa = content_key(netlist_a.content_hash(),
                         netlist_a.content_hash(), options)
    key_ab = content_key(netlist_a.content_hash(),
                         netlist_b.content_hash(), options)
    assert key_aa != key_ab
    certified = content_key(netlist_a.content_hash(),
                            netlist_b.content_hash(),
                            canonical_options({"certify": True}))
    assert certified != key_ab
    # Deterministic across calls — it names on-disk cache files.
    assert key_ab == content_key(netlist_a.content_hash(),
                                 netlist_b.content_hash(), options)


def test_source_key_is_byte_sensitive():
    options = canonical_options(None)
    assert source_key(ADDER, ADDER_B, options) \
        != source_key(ADDER + " ", ADDER_B, options)


def test_result_cache_disk_round_trip(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    assert cache.get("k1") is None
    cache.put("k1", {"equivalent": True})
    assert cache.get("k1") == {"equivalent": True}
    assert os.listdir(tmp_path) == ["k1.json"]
    # A fresh instance over the same directory sees the entry (the
    # cross-process sharing path the daemon workers use).
    assert ResultCache(cache_dir=str(tmp_path)).get("k1") == \
        {"equivalent": True}
    # A corrupt entry is a miss, not an error.
    (tmp_path / "k2.json").write_text("{not json")
    assert cache.get("k2") is None


def test_result_cache_put_survives_a_vanished_directory(tmp_path):
    """A disk write that fails is dropped: the entry is a miss."""
    cache_dir = tmp_path / "gone"
    cache = ResultCache(cache_dir=str(cache_dir))
    cache_dir.rmdir()
    cache.put("k1", {"equivalent": True})
    assert cache.get("k1") is None
    assert not cache_dir.exists()


@pytest.mark.parametrize("sub,reason", [("", "not a directory"),
                                        ("sub", "Not a directory")])
def test_result_cache_rejects_an_unusable_directory(tmp_path, sub, reason):
    path = tmp_path / "file"
    path.write_text("")
    where = str(path / sub) if sub else str(path)
    with pytest.raises(CacheError) as info:
        ResultCache(cache_dir=where)
    assert str(info.value) == \
        f"cannot use cache directory '{where}': {reason}"


def test_verify_job_reports_an_unusable_cache_directory(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    reply = run_verify_job(_payload(cache_dir=str(path)))
    assert reply["ok"] is False and reply["error_type"] == "CacheError"
    assert "cannot use cache directory" in reply["error"]


def test_server_main_rejects_an_unusable_cache_directory(tmp_path, capsys):
    from repro.server.__main__ import main

    path = tmp_path / "file"
    path.write_text("")
    assert main(["--port", "0", "--cache", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot use cache directory '{path}': " \
        "not a directory\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_server_main_rejects_non_positive_workers(workers, capsys):
    from repro.server.__main__ import main

    assert main(["--port", "0", "--workers", workers]) == 1
    assert capsys.readouterr().err == \
        "error: --workers expects a positive integer\n"


@pytest.mark.parametrize("port", ["99999", "65536", "-3"])
def test_server_main_rejects_out_of_range_port(port, capsys):
    from repro.server.__main__ import main

    assert main(["--port", port]) == 1
    assert capsys.readouterr().err == \
        "error: --port expects an integer between 0 and 65535\n"


def test_server_main_rejects_missing_trace_directory(tmp_path, capsys):
    # The trace is written at shutdown; the directory is checked first.
    from repro.server.__main__ import main

    path = tmp_path / "missing" / "t.json"
    assert main(["--port", "0", "--trace", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write '{path}': No such file or directory\n"


def test_server_main_reports_a_port_in_use(capsys):
    from repro.server.__main__ import main

    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert main(["--port", str(port), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_server_main_reports_an_unresolvable_host(monkeypatch, capsys):
    # Name resolution happens inside the bind: stand in its failure.
    from repro.server.__main__ import main

    async def unresolvable(*args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(daemon_module.asyncio, "start_server", unresolvable)
    assert main(["--host", "nowhere.invalid", "--port", "0"]) == 1
    assert capsys.readouterr().err == ("error: cannot listen on "
                                       "nowhere.invalid:0: Name or service "
                                       "not known\n")


# ---------------------------------------------------------------------------
# The worker-side job function (what the pool actually executes)
# ---------------------------------------------------------------------------

def _payload(before=ADDER, after=ADDER_B, options=None, cache_dir=None):
    return {
        "before": before,
        "after": after,
        "options": canonical_options(options),
        "cache_dir": cache_dir,
        "trace": False,
    }


def test_run_verify_job_proves_equivalence():
    reply = run_verify_job(_payload())
    assert reply["ok"] is True
    assert reply["cache_hit"] is False
    assert reply["report"]["equivalent"] is True
    assert reply["hashes"][0] != reply["hashes"][1]
    # The 9-input adder miter is small enough to simulate exhaustively.
    report = reply["report"]
    assert report["sim_proven"] == report["compared"] - report["hash_proven"]
    assert report["solver"]["conflicts"] == 0


def test_run_verify_job_refutes():
    reply = run_verify_job(_payload(after=ADDER_BAD))
    assert reply["ok"] is True
    report = reply["report"]
    assert report["equivalent"] is False
    assert report["counterexample"]["diff"]


def test_run_verify_job_disk_cache_round_trip(tmp_path):
    cold = run_verify_job(_payload(cache_dir=str(tmp_path)))
    assert cold["cache_hit"] is False
    # Comment-only variant: different source bytes, same content key.
    warm = run_verify_job(_payload(before="// v2\n" + ADDER,
                                   cache_dir=str(tmp_path)))
    assert warm["cache_hit"] is True
    assert warm["key"] == cold["key"]
    assert warm["report"] == cold["report"]


def _cli_check(tmp_path, cache_dir):
    """``python -m repro A --check-against B --cache DIR --json`` on the
    adder pair; returns the exit code and the equivalence report."""
    (tmp_path / "a.v").write_text(ADDER)
    (tmp_path / "b.v").write_text(ADDER_B)
    out = io.StringIO()
    code = run_cli([str(tmp_path / "a.v"), "--check-against",
                    str(tmp_path / "b.v"), "--cache", cache_dir, "--json"],
                   out=out)
    return code, json.loads(out.getvalue())["equivalence"]


def test_cli_and_verify_job_share_one_cache(tmp_path):
    """An entry the CLI writes is a hit for a daemon job on the same
    pair, and the other way round: both key on the same content hashes
    and options, and store the same report."""
    cli_dir = tmp_path / "cli_first"
    code, cold = _cli_check(tmp_path, str(cli_dir))
    assert code == 0 and cold["cache_hit"] is False
    warm = run_verify_job(_payload(cache_dir=str(cli_dir)))
    assert warm["ok"] is True and warm["cache_hit"] is True
    assert os.listdir(cli_dir) == [warm["key"] + ".json"]

    job_dir = tmp_path / "job_first"
    job = run_verify_job(_payload(cache_dir=str(job_dir)))
    assert job["cache_hit"] is False
    code, served = _cli_check(tmp_path, str(job_dir))
    assert code == 0 and served.pop("cache_hit") is True
    served.pop("against")  # the CLI names the reference file
    assert served == job["report"]
    assert os.listdir(job_dir) == [job["key"] + ".json"]


def test_run_verify_job_reports_errors():
    reply = run_verify_job(_payload(before=BROKEN_SOURCE))
    assert reply["ok"] is False
    assert reply["error"]
    assert reply["error_type"]


# ---------------------------------------------------------------------------
# Daemon end-to-end over HTTP
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _serving(cache_dir, workers=1):
    """A daemon (one worker by default) on an ephemeral port, served from
    a thread; yields ``(daemon, client)`` and shuts the daemon down on
    exit."""
    box = {}
    started = threading.Event()

    def _serve():
        def _ready(daemon):
            box["daemon"] = daemon
            started.set()

        asyncio.run(run_daemon(port=0, workers=workers,
                               cache_dir=cache_dir, ready=_ready))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "daemon failed to start"
    client = ServerClient(port=box["daemon"].port)
    client.ping()
    try:
        yield box["daemon"], client
    finally:
        client.shutdown()
        thread.join(timeout=60)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    with _serving(str(tmp_path_factory.mktemp("cec-cache"))) as pair:
        yield pair


@pytest.fixture
def client(served):
    return served[1]


def test_daemon_proves_equivalence(client):
    record = client.verify(ADDER, ADDER_B)
    assert record["status"] == "done"
    assert record["equivalence"]["equivalent"] is True
    assert record["cache_hit"] is False


def test_daemon_refutes_with_counterexample(client):
    record = client.verify(ADDER, ADDER_BAD)
    assert record["status"] == "done"
    eq = record["equivalence"]
    assert eq["equivalent"] is False
    assert eq["counterexample"]["diff"]


def test_daemon_alias_cache_hit(client):
    first = client.verify(ADDER, ADDER_B)
    submit = client.submit(ADDER, ADDER_B)
    assert submit["cache_hit"] is True
    record = client.wait(submit["id"])
    assert record["seconds"] == 0.0
    assert record["equivalence"] == first["equivalence"]


def test_daemon_content_hash_cache_hit(client):
    # New source bytes (alias miss) but identical structure: the worker
    # must answer from the shared on-disk content-hash cache.
    client.verify(ADDER, ADDER_B)
    record = client.verify("// resubmitted\n" + ADDER, ADDER_B)
    assert record["cache_hit"] is True
    assert record["equivalence"]["equivalent"] is True


def test_daemon_inflight_dedup(client):
    before = ADDER.replace("a + b + cin", "b + a + cin")
    first = client.submit(before, ADDER_B, {"certify": True})
    second = client.submit(before, ADDER_B, {"certify": True})
    if "deduplicated" in second:
        assert second["id"] == first["id"]
    else:
        # The first job can finish before the duplicate arrives; then
        # the resubmission must be an instant alias hit instead.
        assert second["cache_hit"] is True
    record = client.wait(first["id"])
    assert record["status"] == "done"
    assert record["equivalence"]["proof"]["checked"] is True


def test_daemon_survives_worker_errors(client):
    record = client.verify(BROKEN_SOURCE, ADDER)
    assert record["status"] == "error"
    assert record["error"]
    # The daemon and its pool are still healthy afterwards.
    assert client.verify(ADDER, ADDER_B)["status"] == "done"


def test_daemon_rejects_bad_submissions(client):
    with pytest.raises(ServerError) as exc:
        client.submit(ADDER, None)
    assert exc.value.status == 400
    with pytest.raises(ServerError) as exc:
        client.submit(ADDER, ADDER_B, {"no_such_option": 1})
    assert exc.value.status == 400
    # The retired variable-elimination switch stays an unknown option.
    with pytest.raises(ServerError) as exc:
        client.submit(ADDER, ADDER_B, {"preprocess": False})
    assert exc.value.status == 400
    assert "unknown verification options" in exc.value.body["error"]


def test_daemon_unknown_job_and_route(client):
    with pytest.raises(ServerError) as exc:
        client.job("job-999999")
    assert exc.value.status == 404
    with pytest.raises(ServerError) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404


def test_daemon_status_counters(client):
    # Its own job and a repeat (an alias hit), so the counters do not
    # depend on what earlier tests ran on the shared daemon.
    client.verify(ADDER, ADDER_BAD)
    client.verify(ADDER, ADDER_BAD)
    status = client.status()
    assert status["workers"] == 1
    assert status["total_jobs"] > 0
    assert status["jobs"].get("done", 0) > 0
    assert status["alias_hits"] >= 1
    assert status["uptime_seconds"] > 0.0


def _worker_pids(daemon):
    return [worker.process.pid if worker else None
            for worker in daemon._workers]


def _until(condition, what, timeout=30):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(0.01)


def _kill_worker(daemon, slot=0):
    """SIGKILL one worker process; returns its pid once the daemon has
    forked its replacement."""
    pid = daemon._workers[slot].process.pid
    os.kill(pid, signal.SIGKILL)
    _until(lambda: _worker_pids(daemon)[slot] not in (pid, None),
           "the daemon never replaced the killed worker")
    return pid


def test_a_killed_worker_is_replaced(tmp_path, monkeypatch):
    """A worker killed while idle is forked again, and the next job runs
    on its replacement; one killed under a job fails that job only."""
    with _serving(str(tmp_path)) as (daemon, client):
        assert client.verify(ADDER, ADDER_B)["status"] == "done"

        _kill_worker(daemon)
        record = client.verify(ADDER, ADDER_BAD)
        assert record["status"] == "done"
        assert record["equivalence"]["equivalent"] is False

        with _gate(monkeypatch, tmp_path) as open_gate:
            job = _pending_job(client, "kill1")
            _until(lambda: client.job(job["id"])["status"] == "running",
                   "the held job never reached the worker")
            pid = _kill_worker(daemon)
            record = client.wait(job["id"])
            assert record["status"] == "error"
            assert f"worker process {pid} exited" in record["error"]
            open_gate()
            record = client.verify(ADDER_B, ADDER)
        assert record["status"] == "done"
        assert record["equivalence"]["equivalent"] is True


def test_a_killed_worker_fails_only_its_own_job(tmp_path, monkeypatch):
    """Two workers each hold a job; killing one fails its job alone.  The
    other job's verdict stands, and the daemon keeps both workers."""
    with _gate(monkeypatch, tmp_path) as open_gate, \
            _serving(str(tmp_path), workers=2) as (daemon, client):
        held = {_pending_job(client, f"iso{k}")["id"] for k in range(2)}
        _until(lambda: all(w is not None and w.job is not None
                           for w in daemon._workers),
               "both workers to take a job")
        victim = daemon._workers[0].job["id"]
        pid = _kill_worker(daemon, 0)
        record = client.wait(victim)
        assert record["status"] == "error"
        assert f"worker process {pid} exited" in record["error"]
        open_gate()
        (survivor,) = held - {victim}
        record = client.wait(survivor)
        assert record["status"] == "done"
        assert record["equivalence"]["equivalent"] is True
        later = [_pending_job(client, f"iso{k}") for k in (2, 3)]
        for job in later:
            record = client.wait(job["id"])
            assert record["status"] == "done"
            assert record["equivalence"]["equivalent"] is True


def _raising(payload):
    raise RuntimeError("the job function failed")


def test_a_raising_job_costs_the_job_not_the_worker(served, monkeypatch):
    daemon, client = served
    pids = _worker_pids(daemon)
    monkeypatch.setattr(daemon_module, "run_verify_job", _raising)
    record = client.verify("// raising\n" + ADDER, ADDER_B)
    assert record["status"] == "error"
    assert record["error_type"] == "RuntimeError"
    assert record["error"] == "the job function failed"
    monkeypatch.undo()
    record = client.verify("// after raising\n" + ADDER, ADDER_B)
    assert record["status"] == "done"
    assert _worker_pids(daemon) == pids


def _accepted_socket(port, peer_port):
    """``socket:[inode]``, the ``/proc/<pid>/fd`` link of the socket a
    daemon listening on ``port`` accepted from local port ``peer_port``."""
    with open("/proc/net/tcp") as table:
        for line in table.readlines()[1:]:
            fields = line.split()
            local, remote = fields[1], fields[2]
            if (int(local.split(":")[1], 16) == port
                    and int(remote.split(":")[1], 16) == peer_port):
                return f"socket:[{fields[9]}]"
    raise AssertionError(f"no connection from port {peer_port} to {port}")


def _fd_links(pid):
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(FileNotFoundError):
            links.add(os.readlink(f"/proc/{pid}/fd/{fd}"))
    return links


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="reads /proc")
def test_no_worker_holds_a_client_connection(tmp_path):
    """The workers fork before the daemon accepts a connection, so a
    connection the client closes is not kept open in a worker."""
    with _serving(str(tmp_path)) as (daemon, client):
        assert client.verify(ADDER, ADDER_B)["status"] == "done"
        peer_port = client._local.sock.getsockname()[1]
        accepted = _accepted_socket(daemon.port, peer_port)
        assert accepted in _fd_links(os.getpid())  # the daemon's thread
        for pid in _worker_pids(daemon):
            assert accepted not in _fd_links(pid)


# ---------------------------------------------------------------------------
# Long-poll, persistent connections and the bounded job table
# ---------------------------------------------------------------------------

def _gated(gate, payload):
    """``run_verify_job``, held until the file ``gate`` exists.  A gate
    that never opens fails the job after a minute."""
    deadline = time.monotonic() + 60
    while not os.path.exists(gate):
        if time.monotonic() > deadline:
            raise TimeoutError(f"gate {gate} never opened")
        time.sleep(0.005)
    return run_verify_job(payload)


@contextlib.contextmanager
def _gate(monkeypatch, tmp_path):
    """Hold every job the daemon dispatches in its worker until the
    yielded ``open_gate()`` is called; the gate opens on exit at the
    latest, so no job outlives the test."""
    path = tmp_path / "gate"
    monkeypatch.setattr(daemon_module, "run_verify_job",
                        functools.partial(_gated, str(path)))
    try:
        yield path.touch
    finally:
        path.touch()


def _open_when_waiting(client, count, open_gate):
    """From a new thread, call ``open_gate()`` once the daemon holds
    ``count`` long-polls."""
    def run():
        try:
            deadline = time.monotonic() + 10
            while (client.status()["waiting"] < count
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            open_gate()
            client.close()

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _pending_job(client, tag):
    """Submit a W=3 multiplier proof that is new to both cache tiers.
    Under :func:`_gate` it stays pending until the gate opens."""
    a = designs.renamed(designs.multiplier(3), tag)
    b = designs.renamed(designs.shift_add_multiplier(3), tag)
    return client.submit(a.src, b.src)


def _long_poll(client, job_id, wait, close=False):
    """One ``GET /jobs/<id>?wait=`` request; returns ``(record, the
    reply's arrival time)``.  ``close`` closes the calling thread's
    connection afterwards."""
    record = client._request("GET", f"/jobs/{job_id}?wait={wait}")
    arrived = time.time()
    if close:
        client.close()
    return record, arrived


def test_long_poll_returns_as_the_job_finishes(client, monkeypatch,
                                               tmp_path):
    with _gate(monkeypatch, tmp_path) as open_gate:
        job = _pending_job(client, "lp1")
        sent = time.time()
        opener = _open_when_waiting(client, 1, open_gate)
        record, arrived = _long_poll(client, job["id"], 30)
        opener.join(timeout=30)
        assert not opener.is_alive()
    assert record["status"] == "done"
    assert record["equivalence"]["equivalent"] is True
    assert sent < record["finished"], "the job finished before the poll"
    assert arrived - record["finished"] < 0.05


def test_long_poll_past_its_window_returns_the_pending_record(
        client, monkeypatch, tmp_path):
    with _gate(monkeypatch, tmp_path) as open_gate:
        job = _pending_job(client, "lp2")
        start = time.monotonic()
        record, _ = _long_poll(client, job["id"], 0.05)
        held = time.monotonic() - start
        assert record["status"] in ("queued", "running")
        assert record["finished"] is None
        assert 0.05 <= held < 5.0
        open_gate()
        assert client.wait(job["id"])["status"] == "done"


def test_two_waiters_on_a_deduplicated_job_are_both_released(
        client, monkeypatch, tmp_path):
    with _gate(monkeypatch, tmp_path) as open_gate:
        first = _pending_job(client, "lp3")
        second = _pending_job(client, "lp3")
        assert second.get("deduplicated") is True
        assert second["id"] == first["id"]
        opener = _open_when_waiting(client, 2, open_gate)
        with ThreadPoolExecutor(2) as pool:
            replies = list(pool.map(
                lambda _: _long_poll(client, first["id"], 30, close=True),
                range(2)))
        opener.join(timeout=30)
        assert not opener.is_alive()
    for record, arrived in replies:
        assert record["status"] == "done"
        assert arrived - record["finished"] < 0.05


def test_long_poll_rejects_bad_wait_values(client):
    job = client.submit(ADDER, ADDER_B)
    for query in ("wait=abc", "wait=-1", "wait=nan", "wait=inf", "wait=",
                  "wait", "timeout=1", "wait=1&x=2", "wait=1&wait=2"):
        with pytest.raises(ServerError) as exc:
            client._request("GET", f"/jobs/{job['id']}?{query}")
        assert exc.value.status == 400, query
        error = exc.value.body["error"]
        assert error and "Traceback" not in error, query
    with pytest.raises(ServerError) as exc:
        client._request("GET", "/status?verbose=1")
    assert exc.value.status == 400
    # A 400 for a bad query keeps the connection: the request was framed.
    assert client.wait(job["id"])["status"] == "done"


def test_long_poll_on_an_unknown_job_is_404_at_once(client):
    start = time.monotonic()
    with pytest.raises(ServerError) as exc:
        client._request("GET", "/jobs/job-999999?wait=30")
    assert exc.value.status == 404
    assert time.monotonic() - start < 1.0


def test_one_client_reuses_one_connection(client):
    fresh = ServerClient(port=client.port)
    first = fresh.status()
    for k in range(5):
        record = fresh.verify(f"// reuse {k}\n" + ADDER, ADDER_B)
        assert record["status"] == "done"
    last = fresh.status()
    assert last["connections"] == first["connections"]
    # Each verify is one submit plus at least one long-poll.
    assert last["requests"] >= first["requests"] + 11
    fresh.close()


def test_threads_share_one_client(client):
    shared = ServerClient(port=client.port)
    before = client.status()

    def run(thread):
        verdicts = []
        for k in range(20):
            bad = k % 3 == 0
            record = shared.verify(f"// thread {thread} job {k}\n" + ADDER,
                                   ADDER_BAD if bad else ADDER_B)
            verdicts.append(record["status"] == "done"
                            and record["equivalence"]["equivalent"] is not bad)
        shared.close()
        return verdicts

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run, range(2)))
    assert all(all(verdicts) for verdicts in results)
    # One connection per thread; ``client`` reuses its own.
    assert client.status()["connections"] == before["connections"] + 2


def test_request_after_the_daemon_dropped_an_idle_connection(
        tmp_path, monkeypatch):
    with _serving(str(tmp_path)) as (daemon, _):
        fresh = ServerClient(port=daemon.port, timeout=10)
        assert fresh.verify(ADDER, ADDER_B)["status"] == "done"
        # The replacement worker is forked while this connection is
        # open, so it holds a copy of the daemon's end of it.
        _kill_worker(daemon)
        monkeypatch.setattr(daemon_module, "_IDLE_S", 0.1)
        first = fresh.status()
        time.sleep(0.5)
        # The daemon has closed the connection; the client sees that and
        # retries on a new one.
        second = fresh.status()
        assert second["connections"] == first["connections"] + 1
        fresh.close()


def test_connection_close_and_protocol_errors_end_the_connection(client):
    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=10)
    conn.request("GET", "/status", headers={"Connection": "close"})
    response = conn.getresponse()
    assert response.status == 200 and response.will_close
    response.read()
    conn.close()

    with socket.create_connection(("127.0.0.1", client.port),
                                  timeout=10) as sock:
        # The daemon reads exactly this line, so it closes with nothing
        # unread (which would make the close a reset).
        sock.sendall(b"GARBAGE\r\n")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert b"malformed request line" in body


def test_status_reports_transport_counters(client):
    status = client.status()
    assert status["connections"] >= 1
    assert status["requests"] > status["connections"]
    assert status["waiting"] == 0


def test_shutdown_answers_long_polls_and_closes_idle_connections(
        tmp_path, monkeypatch):
    with _gate(monkeypatch, tmp_path) as open_gate, \
            _serving(str(tmp_path)) as (daemon, client):
        idle = http.client.HTTPConnection("127.0.0.1", daemon.port,
                                          timeout=10)
        idle.request("GET", "/status")
        assert idle.getresponse().read()
        # Three proofs held on one worker until the poller's long-poll
        # is answered; the daemon's drain then lets them finish.
        jobs = [_pending_job(client, f"sd{k}") for k in range(3)]
        box = {}

        def poll_then_open():
            try:
                box["reply"] = _long_poll(ServerClient(port=daemon.port),
                                          jobs[-1]["id"], 30, close=True)
            finally:
                open_gate()

        poller = threading.Thread(target=poll_then_open)
        poller.start()
        deadline = time.monotonic() + 10
        while client.status()["waiting"] < 1:
            assert time.monotonic() < deadline, "the long-poll never held"
            time.sleep(0.01)
        start = time.monotonic()
    # ``_serving`` posted /shutdown and joined the daemon thread.
    assert time.monotonic() - start < 5.0
    poller.join(timeout=5)
    assert not poller.is_alive()
    record, _ = box["reply"]
    assert record["status"] in ("queued", "running")
    idle.sock.settimeout(5)
    assert idle.sock.recv(1) == b""
    idle.close()


def test_finished_job_table_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon_module, "_MAX_FINISHED", 3)
    with _serving(str(tmp_path)) as (daemon, client):
        original = client.verify(ADDER, ADDER_B)
        variant = 0

        def other_job():
            nonlocal variant
            variant += 1
            record = client.verify(f"// other {variant}\n" + ADDER, ADDER_B)
            assert record["status"] == "done"
            # Nothing is in flight between sequential verifies.
            assert client.status()["total_jobs"] <= 3
            assert len(daemon.alias) <= len(daemon.jobs)

        other_job()
        repeat = client.submit(ADDER, ADDER_B)
        assert repeat["cache_hit"] is True
        for _ in range(4):
            other_job()
            other_job()
            # The original was evicted long ago, but the alias follows
            # the newest repeat, which is still in the table.
            repeat = client.submit(ADDER, ADDER_B)
            assert repeat["cache_hit"] is True
            assert client.wait(repeat["id"])["seconds"] == 0.0
        with pytest.raises(ServerError) as exc:
            client.job(original["id"])
        assert exc.value.status == 404
