"""``repro.server`` — the batch-verification service layer.

ROADMAP item 3: a long-running, stdlib-only daemon that turns the
one-shot CEC pipeline into a production-shaped service — a job queue
over an :mod:`asyncio` HTTP/JSON front, a :mod:`multiprocessing` worker
pool executing :func:`~repro.server.jobs.run_verify_job` per submission,
an in-memory alias map of answered submissions, and an on-disk result
cache keyed on structural content hashes
(:meth:`Netlist.content_hash <repro.netlist.logic.Netlist.content_hash>`
+ canonical options, see :mod:`repro.server.cache`) so repeat
submissions — the common production case — never reach the solver.

Quickstart::

    python -m repro.server --port 8347 --workers 4 --cache .cec-cache

    from repro.server import ServerClient
    client = ServerClient(port=8347)
    record = client.verify(before_src, after_src, {"certify": True})
    assert record["equivalence"]["equivalent"]

The ``equivalence`` block of a job record is byte-compatible with the
CLI's ``--check --json`` report
(:meth:`EquivalenceResult.to_report
<repro.netlist.sat.cec.EquivalenceResult.to_report>`), so downstream
tooling can consume either entry point.  The ``server_mix`` workload of
``perfbench/run.py`` measures the daemon end-to-end: jobs/sec, latency
and the alias, dedup and disk cache hits.
"""

from .cache import (
    OPTION_DEFAULTS,
    CacheError,
    ResultCache,
    canonical_options,
    content_key,
    source_key,
)
from .client import ServerClient, ServerError
from .daemon import VerifyDaemon, run_daemon
from .jobs import run_verify_job

__all__ = [
    "OPTION_DEFAULTS",
    "CacheError",
    "ResultCache",
    "ServerClient",
    "ServerError",
    "VerifyDaemon",
    "canonical_options",
    "content_key",
    "run_daemon",
    "run_verify_job",
    "source_key",
]
