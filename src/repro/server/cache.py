"""Content-hash result cache for verification jobs.

Results are keyed on *what was verified*, not *what text was submitted*:
``content_key`` hashes the two designs' structural
:meth:`~repro.netlist.logic.Netlist.content_hash` digests together with
the canonicalized option set, so formatting changes, comment edits, or
resubmissions of byte-identical sources all land on the same entry.

:class:`ResultCache` is a directory of ``<key>.json`` files shared by
the CLI and the daemon's workers.  Writes are atomic (tempfile +
:func:`os.replace`), so workers in separate processes can share one
directory without locking — the worst race is two workers computing the
same result and one overwrite winning, which is harmless because entries
are deterministic functions of their key.
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

    Fills defaults and raises ``ValueError`` on unknown keys.
    """
    options = dict(options or {})
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
    """On-disk store of verification reports by content key.

    Raises :class:`CacheError` when ``cache_dir`` cannot be created.
    Once constructed, a failed read is a miss and a failed write is
    dropped, so the cache never fails a verdict.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            reason = ("not a directory"
                      if isinstance(exc, FileExistsError)
                      else exc.strerror or str(exc))
            raise CacheError(f"cannot use cache directory "
                             f"'{cache_dir}': {reason}") from exc

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The cached report for ``key``, or None."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key: str, report: dict) -> None:
        """Store ``report`` under ``key`` (atomically)."""
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
