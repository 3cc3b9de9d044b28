"""Worker-side execution of verification jobs.

:func:`run_verify_job` is the module-level, picklable function the
daemon's :class:`~concurrent.futures.ProcessPoolExecutor` runs.  One job
is one equivalence check: elaborate both submitted sources, compute their
structural content hashes, consult the shared on-disk
:class:`~repro.server.cache.ResultCache` (when the daemon has a cache
directory), and only on a miss run the full staged CEC pipeline
(:func:`~repro.netlist.sat.check_equivalence`).  The reply is a plain
dict — JSON-ready report, cache metadata, and the worker's recorded
:mod:`repro.obs` spans for the parent to stitch into its timeline.

Jobs never raise across the process boundary: every failure mode
(frontend errors, interface mismatches, bad options) comes back as
``{"ok": False, "error": ...}`` so one malformed submission cannot kill a
pool worker mid-batch.
"""

from __future__ import annotations

import time

from ..obs import NULL_TRACER, Tracer, use_tracer
from .cache import ResultCache, canonical_options, content_key


def run_verify_job(payload: dict) -> dict:
    """Execute one verification job; see the module docstring.

    ``payload`` keys: ``before`` / ``after`` (Verilog source texts),
    ``options`` (cache-key option dict, see
    :data:`~repro.server.cache.OPTION_DEFAULTS`), ``cache_dir``
    (optional shared result-cache directory), ``trace`` (record and
    return worker spans).
    """
    # Imported here, not at module top: the worker process forks before
    # the first job, and the elaborator pulls in the whole frontend.
    from ..netlist import elaborate
    from ..netlist.sat import check_equivalence

    trace = bool(payload.get("trace"))
    tracer = Tracer() if trace else NULL_TRACER
    started = time.perf_counter()
    reply: dict = {"ok": True, "cache_hit": False, "spans": []}
    try:
        options = canonical_options(payload.get("options"))
        with use_tracer(tracer):
            with tracer.span("server.job") as job_span:
                before = elaborate(payload["before"])
                after = elaborate(payload["after"])
                key = content_key(before.content_hash(),
                                  after.content_hash(), options)
                reply["key"] = key
                reply["hashes"] = [before.content_hash(),
                                   after.content_hash()]
                cache_dir = payload.get("cache_dir")
                cache = ResultCache(cache_dir) if cache_dir else None
                report = cache.get(key) if cache is not None else None
                if report is not None:
                    reply["cache_hit"] = True
                else:
                    verdict = check_equivalence(
                        before, after, certify=options["certify"])
                    report = verdict.to_report(
                        certify=options["certify"])
                    if cache is not None:
                        cache.put(key, report)
                reply["report"] = report
                job_span.set(cache_hit=reply["cache_hit"],
                             equivalent=report["equivalent"])
    except Exception as exc:  # noqa: BLE001 — must not kill the worker
        reply = {"ok": False, "error": str(exc),
                 "error_type": type(exc).__name__, "spans": []}
    reply["seconds"] = time.perf_counter() - started
    if trace:
        reply["spans"] = tracer.records
    return reply
