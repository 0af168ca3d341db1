"""Content-addressed result cache keyed on spec digest + code version.

One JSON file per scenario under ``benchmarks/results/cache/``, named by
the spec's :meth:`~repro.exec.spec.ScenarioSpec.config_digest`.  Each
entry embeds the digest, the canonical spec (for human inspection), the
code-version salt (a content hash of the package sources,
:func:`code_version_salt`), the serialized
:class:`~repro.exec.result.ScenarioResult` and a SHA-256 **checksum** of
the result's canonical JSON, verified on every read.

A lookup *hits* only when the file exists **and** its schema, digest and
version salt all match the running code — anything else counts as an
*invalidation* (stale version, corrupt file, digest collision with a
changed layout) and reads as a miss, so warm caches survive innocuous
restarts but never serve results produced by different code.

Invalidation distinguishes *stale* from *damaged*.  A stale entry
(older schema or version salt) is left in place: re-running simply
overwrites it.  A **damaged** entry — unreadable JSON, checksum or
digest mismatch, undeserializable result — is additionally *quarantined*
(moved into ``<root>/quarantine/``) so the bad bytes can never be served
again and remain on disk for diagnosis; the read still counts as a miss
and the scenario re-executes.  A sweep never crashes on a bad cache
entry and never returns data from one.

``put`` writes atomically (temp file + rename) so a crashed or parallel
writer can never leave a half-entry behind; last writer wins, which is
safe because any two writers of one digest computed the same result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..config import EXEC_CACHE_DIR
from .result import RESULT_SCHEMA, ScenarioResult, canonical_checksum
from .spec import ScenarioSpec

#: Cache-entry schema; bump to invalidate every existing entry.
#: /2 added the result checksum (integrity layer).
CACHE_SCHEMA = "repro-exec-cache/2"

#: Default cache location (gitignored; lives next to the bench reports).
DEFAULT_CACHE_DIR = EXEC_CACHE_DIR

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"


def source_salt(package_root: Union[str, Path]) -> str:
    """``<version>+<hash>`` over every ``*.py`` file under
    ``package_root`` (relative path and bytes, in sorted order).  The
    whole package, not a list of "model" directories: which runtime,
    options and events a spec gets is decided in ``exec`` and ``bench``
    too, and a list leaves the next such file out."""
    from .. import __version__

    root = Path(package_root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return f"{__version__}+{h.hexdigest()[:16]}"


@functools.lru_cache(maxsize=None)
def code_version_salt() -> str:
    """The code-version component of the cache key: a content hash of the
    package sources, so an edit to the code can never be answered from an
    entry the old code computed.  Hashed once per process; the bare
    ``__version__`` only when the sources cannot be read (a zipped or
    compiled-only install)."""
    try:
        return source_salt(Path(__file__).resolve().parent.parent)
    except OSError:
        from .. import __version__

        return __version__


#: The integrity checksum is the canonical one defined next to the
#: result serialization (same function on write and on verify).
result_checksum = canonical_checksum


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting for one engine run."""

    hits: int = 0
    misses: int = 0
    #: Entries found on disk but rejected (version/schema/digest mismatch
    #: or unreadable JSON).
    invalidations: int = 0
    stores: int = 0
    #: Damaged entries detected (checksum/digest mismatch, unreadable or
    #: undeserializable payload) — a subset of ``invalidations``.
    corrupt: int = 0
    #: Damaged entries successfully moved into the quarantine directory.
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }


@dataclass(frozen=True)
class CachedEntry:
    """A cache hit: the deterministic result plus execution metadata."""

    result: ScenarioResult
    #: Wall seconds of the run that produced the entry (machine/time
    #: dependent — metadata, never part of the result's canonical JSON).
    wall_seconds: float = 0.0


class ResultCache:
    """Content-addressed store of :class:`ScenarioResult` entries."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 salt: Optional[str] = None):
        self.root = Path(root)
        self.salt = salt if salt is not None else code_version_salt()
        self.stats = CacheStats()

    def path(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{spec.config_digest()}.json"

    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def _quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a damaged entry aside; never raises, never serves it again.

        The quarantine directory is created lazily — a healthy cache
        root contains nothing but ``*.json`` entries.
        """
        self.stats.corrupt += 1
        dest = self.quarantine_root / f"{path.name}.{reason}"
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return None  # racing reader already moved it, or FS trouble
        self.stats.quarantined += 1
        return dest

    def _reject(self, path: Path, reason: Optional[str] = None) -> None:
        """Count an invalidated read; quarantine it when damaged."""
        self.stats.invalidations += 1
        self.stats.misses += 1
        if reason is not None:
            self._quarantine(path, reason)

    def get(self, spec: ScenarioSpec) -> Optional[CachedEntry]:
        """The cached entry, or None (miss / invalidated entry)."""
        path = self.path(spec)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except json.JSONDecodeError:
            self._reject(path, reason="unreadable")
            return None
        except OSError:
            self._reject(path)
            return None
        if not isinstance(entry, dict):
            self._reject(path, reason="unreadable")
            return None
        if (
            entry.get("schema") != CACHE_SCHEMA
            or entry.get("version") != self.salt
        ):
            self._reject(path)  # stale, not damaged: no quarantine
            return None
        result_dict = entry.get("result")
        if (
            entry.get("digest") != spec.config_digest()
            or not isinstance(result_dict, dict)
            or result_dict.get("schema") != RESULT_SCHEMA
        ):
            self._reject(path, reason="mismatch")
            return None
        if entry.get("checksum") != result_checksum(result_dict):
            self._reject(path, reason="checksum")
            return None
        try:
            result = ScenarioResult.from_dict(result_dict)
        except (TypeError, KeyError, ValueError):
            self._reject(path, reason="payload")
            return None
        self.stats.hits += 1
        return CachedEntry(
            result=result,
            wall_seconds=float(entry.get("meta", {}).get("wall_seconds", 0.0)),
        )

    def put(self, spec: ScenarioSpec, result: ScenarioResult,
            wall_seconds: float = 0.0) -> Path:
        """Write the entry (atomically) and return its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(spec)
        result_dict = result.to_dict()
        entry = {
            "schema": CACHE_SCHEMA,
            "version": self.salt,
            "digest": spec.config_digest(),
            "spec": spec.canonical_dict(),
            "result": result_dict,
            "checksum": result_checksum(result_dict),
            "meta": {"wall_seconds": wall_seconds},
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path
