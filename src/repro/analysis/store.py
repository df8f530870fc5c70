"""The one durable result store: digest-checked JSON entries in a directory.

Both runners persist each finished result here the moment its task
lands: the experiment runner (:mod:`repro.analysis.runner`) one entry
per experiment, the campaign runner (:mod:`repro.analysis.campaigns`)
one entry per scenario.  An entry is ``<root>/<key>-<digest>.json``,
where ``digest`` (:func:`digest`) hashes everything the result depends
on — parameters, seed, code version — so an entry written for other
inputs is never found, and one whose bytes do not decode or whose
recorded digest disagrees is a miss, never a crash.  Entries are
written tmp → fsync → rename (:func:`write_atomic`): a run killed at
any instant leaves each entry whole or absent, which is what lets a
re-run resume instead of restarting.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.devtools import chaos

__all__ = ["ResultStore", "digest", "write_atomic"]


def write_atomic(path: Path, text: str) -> None:
    """Atomic durable write: tmp file, fsync, rename into place, so a
    reader (or a resumed run) sees the old file or the whole new one."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)


def digest(obj: Any) -> str:
    """16-hex sha256 of ``obj``'s canonical JSON (sorted keys, compact
    separators): the key digest of every store entry and manifest."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _is_entry_name(stem: str) -> bool:
    prefix, _, tail = stem.rpartition("-")
    return (
        bool(prefix) and len(tail) == 16 and all(c in "0123456789abcdef" for c in tail)
    )


class ResultStore:
    """A directory of ``<key>-<digest>.json`` entries (JSON objects that
    record their own ``digest``)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str, digest: str) -> Path:
        return self.root / f"{key}-{digest}.json"

    def load(self, key: str, digest: str) -> dict[str, Any] | None:
        """The stored entry, or ``None`` on a miss: no file, bytes that
        do not decode as a JSON object, or another recorded digest."""
        path = self._path(key, digest)
        if not path.exists():
            return None
        chaos.corrupt_cache_entry(path)  # no-op unless REPRO_CHAOS injects
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # torn or non-UTF-8 bytes
            return None
        if not isinstance(payload, dict) or payload.get("digest") != digest:
            return None
        return payload

    def store(self, key: str, digest: str, payload: dict[str, Any]) -> None:
        """Durably write ``payload`` (with its ``digest``) as one entry."""
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {**payload, "digest": digest}
        write_atomic(
            self._path(key, digest), json.dumps(entry, indent=1, sort_keys=True)
        )

    def clean(self) -> int:
        """Delete every entry; returns the number removed.

        Only ``<key>-<16-hex-digest>.json`` files (and their ``.tmp``
        siblings from interrupted writes) are touched, so a directory
        that also holds unrelated JSON keeps it.
        """
        if not self.root.exists():
            return 0
        removed = 0
        for path in sorted(self.root.glob("*.json")):
            if _is_entry_name(path.name[: -len(".json")]):
                path.unlink()
                removed += 1
        for path in sorted(self.root.glob("*.json.tmp")):
            if _is_entry_name(path.name[: -len(".json.tmp")]):
                path.unlink()
        return removed

    def remove(self) -> None:
        """Delete every entry, then the directory if nothing else is left."""
        self.clean()
        if self.root.is_dir() and not any(self.root.iterdir()):
            self.root.rmdir()
