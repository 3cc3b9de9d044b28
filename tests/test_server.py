"""Tests for ``repro.server``: cache keys, worker jobs, daemon, client."""

import asyncio
import threading

import pytest

from repro.netlist import elaborate
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


def test_canonical_options_drops_jobs():
    # Worker parallelism cannot change a verdict, so it must not split
    # the cache key space.
    assert canonical_options({"jobs": 8}) == OPTION_DEFAULTS


def test_canonical_options_rejects_unknown_keys():
    # "encoding" is a retired option: the miter is always the shared AIG.
    for options in ({"certfy": True}, {"encoding": "aig"}):
        with pytest.raises(ValueError,
                           match="unknown verification options"):
            canonical_options(options)


def test_canonical_options_coerces_and_orders():
    a = canonical_options({"certify": 1, "preprocess": 0})
    b = canonical_options({"preprocess": False, "certify": True})
    assert a == b
    assert a["certify"] is True


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


def test_result_cache_memory_and_disk(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    assert cache.get("k1") is None
    cache.put("k1", {"equivalent": True})
    assert cache.get("k1") == {"equivalent": True}
    # A fresh instance over the same directory sees the entry (the
    # cross-process sharing path the daemon workers use).
    other = ResultCache(cache_dir=str(tmp_path))
    assert other.get("k1") == {"equivalent": True}
    stats = other.stats()
    assert stats["disk_hits"] == 1 and stats["misses"] == 0


def test_result_cache_memory_only():
    cache = ResultCache(cache_dir=None)
    cache.put("k1", {"equivalent": False})
    assert cache.get("k1") == {"equivalent": False}
    assert ResultCache(cache_dir=None).get("k1") is None


def test_result_cache_put_survives_a_vanished_directory(tmp_path):
    """A disk write that fails is dropped; the entry stays in memory."""
    cache_dir = tmp_path / "gone"
    cache = ResultCache(cache_dir=str(cache_dir))
    cache_dir.rmdir()
    cache.put("k1", {"equivalent": True})
    assert cache.get("k1") == {"equivalent": True}
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


def test_run_verify_job_reports_errors():
    reply = run_verify_job(_payload(before=BROKEN_SOURCE))
    assert reply["ok"] is False
    assert reply["error"]
    assert reply["error_type"]


# ---------------------------------------------------------------------------
# Daemon end-to-end over HTTP
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def client(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("cec-cache"))
    box = {}
    started = threading.Event()

    def _serve():
        def _ready(daemon):
            box["daemon"] = daemon
            started.set()

        asyncio.run(run_daemon(port=0, workers=1, cache_dir=cache_dir,
                               ready=_ready))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "daemon failed to start"
    client = ServerClient(port=box["daemon"].port)
    client.ping()
    yield client
    client.shutdown()
    thread.join(timeout=60)


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


def test_daemon_unknown_job_and_route(client):
    with pytest.raises(ServerError) as exc:
        client.job("job-999999")
    assert exc.value.status == 404
    with pytest.raises(ServerError) as exc:
        client._request("GET", "/nope")
    assert exc.value.status == 404


def test_daemon_status_counters(client):
    status = client.status()
    assert status["workers"] == 1
    assert status["total_jobs"] > 0
    assert status["jobs"].get("done", 0) > 0
    assert status["alias_hits"] >= 1
    assert status["uptime_seconds"] > 0.0
