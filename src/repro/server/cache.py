"""Content-hash result cache for verification jobs.

Results are keyed on *what was verified*, not *what text was submitted*:
``content_key`` hashes the two designs' structural
:meth:`~repro.netlist.logic.Netlist.content_hash` digests together with
the canonicalized option set, so formatting changes, comment edits, or
resubmissions of byte-identical sources all land on the same entry.  The
``jobs`` knob is deliberately excluded from the key — worker count must
never change a verdict, so a result computed at any parallelism serves
every other.

:class:`ResultCache` is two-tier: a per-process in-memory dict in front
of an optional shared on-disk directory of ``<key>.json`` files.  Disk
writes are atomic (tempfile + :func:`os.replace`), so daemon workers in
separate processes can share one directory without locking — the worst
race is two workers computing the same result and one overwrite winning,
which is harmless because entries are deterministic functions of their
key.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional

#: Option names (and defaults) that select *what* is proven and *what the
#: report contains* — the cache key's option dimension.  Unknown options
#: are rejected at canonicalization time so a typo cannot silently alias
#: two different requests onto one entry.
OPTION_DEFAULTS = {
    "certify": False,
}


def canonical_options(options: Optional[dict]) -> dict:
    """Normalize a submission's option dict to the cache-key option set.

    Fills defaults, drops execution knobs that cannot affect the result
    (``jobs``), and raises ``ValueError`` on unknown keys.
    """
    options = dict(options or {})
    options.pop("jobs", None)
    unknown = sorted(set(options) - set(OPTION_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown verification options: {unknown}")
    canonical = dict(OPTION_DEFAULTS)
    canonical.update(options)
    canonical["certify"] = bool(canonical["certify"])
    return canonical


def content_key(hash_a: str, hash_b: str, options: Optional[dict]) -> str:
    """The cache key for verifying two designs under an option set."""
    payload = json.dumps(
        [hash_a, hash_b, canonical_options(options)],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def source_key(before: str, after: str, options: Optional[dict]) -> str:
    """A cheaper alias key over the submitted *source texts*.

    The daemon keeps a ``source_key -> content_key`` alias map so repeat
    submissions of identical text are served without re-elaborating —
    the common production case the server exists for.  Different texts
    of the same design miss here and converge at the content key.
    """
    payload = json.dumps(
        [before, after, canonical_options(options)],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CacheError(Exception):
    """Raised when a cache directory cannot be created or used."""


class ResultCache:
    """In-memory + on-disk store of verification reports by content key.

    Raises :class:`CacheError` when ``cache_dir`` cannot be created.
    Once constructed, a failed disk read is a miss and a failed disk
    write is dropped, so the cache never fails a verdict.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.memory: dict[str, dict] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.writes = 0
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError as exc:
                reason = ("not a directory"
                          if isinstance(exc, FileExistsError)
                          else exc.strerror or str(exc))
                raise CacheError(f"cannot use cache directory "
                                 f"'{cache_dir}': {reason}") from exc

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The cached report for ``key``, or None (counts the miss)."""
        report = self.memory.get(key)
        if report is not None:
            self.memory_hits += 1
            return report
        if self.cache_dir:
            try:
                with open(self._path(key), "r", encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = None
            if report is not None:
                self.memory[key] = report
                self.disk_hits += 1
                return report
        self.misses += 1
        return None

    def put(self, key: str, report: dict) -> None:
        """Store ``report`` under ``key`` in memory and (atomically) on
        disk."""
        self.memory[key] = report
        self.writes += 1
        if not self.cache_dir:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(report, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def stats(self) -> dict:
        return {
            "memory_entries": len(self.memory),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "writes": self.writes,
        }
