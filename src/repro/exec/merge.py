"""Lossless union of two result-cache directories.

``repro cache merge SRC DST`` consolidates sweep caches, e.g. one
host's into a coordinator's shared one.  Digests are
location-independent — the same spec hashes to the same file name on
every host — so a merge is mostly "copy the entries the destination
lacks", with integrity enforced the same way
:class:`~repro.exec.cache.ResultCache` enforces it on read:

* every source entry is **checksum-verified** before it is copied
  (schema, digest-vs-filename, result checksum); a damaged entry is
  quarantined into ``DST/quarantine/`` instead of merged, exactly like a
  damaged entry found on read;
* an entry present on both sides with the **same checksum** is the same
  deterministic result — skipped, nothing to do;
* an entry present on both sides with **different checksums** is a
  *conflict* — impossible for honest caches of deterministic
  simulations, so the merge keeps the destination's version and
  quarantines the source bytes (``*.conflict``) for diagnosis rather
  than silently picking a winner.

Copies are atomic (temp file + rename) like ``ResultCache.put``, so a
crashed merge never leaves half an entry; re-running a merge is
idempotent.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from ..errors import ExecError
from .cache import CACHE_SCHEMA, QUARANTINE_DIR, result_checksum
from .result import RESULT_SCHEMA


@dataclass
class MergeStats:
    """What one :func:`merge_caches` run did."""

    #: Candidate ``*.json`` entries found in the source.
    scanned: int = 0
    #: Entries copied into the destination (it lacked the digest).
    copied: int = 0
    #: Entries present on both sides with identical checksums.
    identical: int = 0
    #: Both sides had the digest with *different* checksums; destination
    #: kept, source bytes quarantined.
    conflicts: int = 0
    #: Source entries that failed verification and were quarantined.
    damaged: int = 0

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "copied": self.copied,
            "identical": self.identical,
            "conflicts": self.conflicts,
            "damaged": self.damaged,
        }


def _verify_entry(path: Path) -> Tuple[Optional[dict], Optional[str]]:
    """Load + integrity-check one cache entry.

    Returns ``(entry, None)`` when sound, ``(None, reason)`` when
    damaged — reasons match the read-side quarantine suffixes of
    :class:`~repro.exec.cache.ResultCache`.
    """
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None, "unreadable"
    if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
        return None, "unreadable"
    result = entry.get("result")
    if (
        entry.get("digest") != path.stem
        or not isinstance(result, dict)
        or result.get("schema") != RESULT_SCHEMA
    ):
        return None, "mismatch"
    if entry.get("checksum") != result_checksum(result):
        return None, "checksum"
    return entry, None


def _quarantine(src_path: Path, dst_root: Path, reason: str) -> None:
    qdir = dst_root / QUARANTINE_DIR
    qdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(src_path, qdir / f"{src_path.name}.{reason}")


def _atomic_copy(src_path: Path, dst_path: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=dst_path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as out, open(src_path, "rb") as inp:
            shutil.copyfileobj(inp, out)
        os.replace(tmp, dst_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def merge_caches(src: Union[str, Path], dst: Union[str, Path]) -> MergeStats:
    """Merge every sound entry of ``src`` into ``dst`` (see module doc).

    The source is never modified.  Raises :class:`ExecError` when the
    source directory does not exist or the two paths are the same
    directory; an empty (or entry-free) source is a no-op.
    """
    src_root = Path(src)
    dst_root = Path(dst)
    if not src_root.is_dir():
        raise ExecError(f"cache merge: source {src_root} is not a directory")
    if dst_root.exists() and os.path.realpath(src_root) == os.path.realpath(
            dst_root):
        raise ExecError("cache merge: source and destination are the same "
                        "directory")
    stats = MergeStats()
    for src_path in sorted(src_root.glob("*.json")):
        stats.scanned += 1
        entry, reason = _verify_entry(src_path)
        if entry is None:
            stats.damaged += 1
            _quarantine(src_path, dst_root, reason)
            continue
        dst_path = dst_root / src_path.name
        if dst_path.exists():
            dst_entry, dst_reason = _verify_entry(dst_path)
            if dst_entry is not None:
                if dst_entry.get("checksum") == entry.get("checksum"):
                    stats.identical += 1
                else:
                    stats.conflicts += 1
                    _quarantine(src_path, dst_root, "conflict")
                continue
            # Destination copy is damaged: quarantine it read-side style
            # and let the verified source entry replace it.
            _quarantine(dst_path, dst_root, dst_reason)
            os.unlink(dst_path)
        dst_root.mkdir(parents=True, exist_ok=True)
        _atomic_copy(src_path, dst_path)
        stats.copied += 1
    return stats
