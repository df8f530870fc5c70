"""Zero-copy corpus reading: mmap the file, slice frames in O(1).

:class:`CorpusReader` maps the whole corpus read-only and exposes each
section as a NumPy view over the mapping — nothing is copied at open
time, however many millions of frames the file holds.  ``frame_at(i)``
slices the three plane views with the per-frame bounds and wraps them
in a read-only :class:`~repro.frame.ScheduleFrame`; the slices are
contiguous ``int64``, so the frame constructor's
``ascontiguousarray``/freeze pass keeps the mmap-backed buffers as-is.
That makes corpus frames full citizens of the rest of the engine: the
per-graph validator caches key on the frame like any other, and every
``api.validate`` engine accepts them (pinned by ``tests/corpus``).

Lookup is the footer's group index: ``(graph spec, scheduler, k,
seed)`` → frame range, then a binary search over that range's
ascending ``source`` segment.  A miss is ``None`` from :meth:`lookup`
or a stable-coded :class:`CorpusKeyError` from :meth:`get`.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Any

import numpy as np

from repro.corpus import format as corpus_format
from repro.errors import CorpusFormatError, CorpusKeyError
from repro.frame import ScheduleFrame

__all__ = ["CorpusReader"]


class CorpusReader:
    """Read-only mmap view of one packed corpus file."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._file = open(self._path, "rb")
        try:
            self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise CorpusFormatError(
                f"corpus file {self._path} is empty"
            ) from None
        loaded = False
        try:
            self._load()
            loaded = True
        finally:
            if not loaded:
                self.close()

    def _load(self) -> None:
        size = len(self._mmap)
        corpus_format.unpack_header(self._mmap[: corpus_format.HEADER_SIZE])
        footer_off, footer_len = corpus_format.unpack_trailer(
            self._mmap[max(0, size - corpus_format.TRAILER_SIZE) :]
        )
        if footer_off + footer_len + corpus_format.TRAILER_SIZE > size:
            raise CorpusFormatError(
                f"corpus trailer points past end of file "
                f"(footer at {footer_off}+{footer_len}, file is {size} bytes)"
            )
        self._meta, self._groups, self._n_frames = corpus_format.decode_footer(
            self._mmap[footer_off : footer_off + footer_len]
        )
        self._sections: dict[str, np.ndarray] = {}
        for name in corpus_format.SECTION_NAMES:
            info = self._meta[name]
            offset, count = info["offset"], info["count"]
            if offset < corpus_format.HEADER_SIZE or offset + count * 8 > footer_off:
                raise CorpusFormatError(
                    f"corpus section {name!r} lies outside the data region"
                )
            self._sections[name] = np.frombuffer(
                self._mmap, dtype="<i8", count=count, offset=offset
            )
        self._check_bounds()
        self._index = {g.key: g for g in self._groups}
        self._frames: dict[int, ScheduleFrame] = {}

    def _check_bounds(self) -> None:
        n = self._n_frames
        sections = self._sections
        if sections["source"].size != n:
            raise CorpusFormatError(
                f"corpus 'source' plane has {sections['source'].size} entries "
                f"for {n} frames"
            )
        for bounds_name, plane_name in (
            ("pv_bounds", "path_verts"),
            ("co_bounds", "call_offsets"),
            ("ro_bounds", "round_offsets"),
        ):
            bounds = sections[bounds_name]
            plane = sections[plane_name]
            if (
                bounds.size != n + 1
                or (n >= 0 and (int(bounds[0]) != 0 or int(bounds[-1]) != plane.size))
                or (np.diff(bounds) < 0).any()
            ):
                raise CorpusFormatError(
                    f"corpus {bounds_name!r} is not a prefix-bounds array "
                    f"over {plane_name!r}"
                )
        for group in self._groups:
            segment = sections["source"][group.lo : group.hi]
            if segment.size and (np.diff(segment) <= 0).any():
                raise CorpusFormatError(
                    f"corpus group {group.key!r} sources are not "
                    "strictly ascending"
                )

    # -- shape ---------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def n_frames(self) -> int:
        return self._n_frames

    @property
    def groups(self) -> list[corpus_format.GroupInfo]:
        return list(self._groups)

    def __len__(self) -> int:
        return self._n_frames

    def section(self, name: str) -> np.ndarray:
        """The raw mmap-backed view of one section (read-only)."""
        return self._sections[name]

    def section_meta(self, name: str) -> dict[str, Any]:
        """The footer's ``{offset, count, sha256}`` record for a section."""
        return dict(self._meta[name])

    def section_sha256(self, name: str) -> str:
        """The *actual* digest of a section's mapped bytes (recomputed)."""
        info = self._meta[name]
        view = memoryview(self._mmap)[
            info["offset"] : info["offset"] + info["count"] * 8
        ]
        return corpus_format.section_sha256(view)

    def stats(self) -> dict[str, Any]:
        """The summary payload behind ``repro corpus stats``."""
        return {
            "format": corpus_format.CORPUS_FORMAT,
            "path": str(self._path),
            "bytes": len(self._mmap),
            "n_frames": self._n_frames,
            "n_groups": len(self._groups),
            "path_verts": int(self._sections["path_verts"].size),
            "groups": [g.to_wire() for g in self._groups],
        }

    # -- lookup --------------------------------------------------------------

    def lookup(
        self,
        graph: str,
        scheduler: str,
        source: int,
        *,
        k: int | None = None,
        seed: int = 0,
    ) -> int | None:
        """The frame id for a key, or ``None`` if the corpus lacks it."""
        group = self._index.get((graph, scheduler, k, seed))
        if group is None:
            return None
        segment = self._sections["source"][group.lo : group.hi]
        pos = int(np.searchsorted(segment, source))
        if pos >= segment.size or int(segment[pos]) != source:
            return None
        return group.lo + pos

    def frame_at(self, fid: int) -> ScheduleFrame:
        """Frame ``fid`` as zero-copy read-only slices of the mapping."""
        frame = self._frames.get(fid)
        if frame is not None:
            return frame
        if not 0 <= fid < self._n_frames:
            raise CorpusKeyError(
                f"frame id {fid} out of range for a {self._n_frames}-frame corpus"
            )
        s = self._sections
        frame = ScheduleFrame(
            source=int(s["source"][fid]),
            path_verts=s["path_verts"][s["pv_bounds"][fid] : s["pv_bounds"][fid + 1]],
            call_offsets=s["call_offsets"][
                s["co_bounds"][fid] : s["co_bounds"][fid + 1]
            ],
            round_offsets=s["round_offsets"][
                s["ro_bounds"][fid] : s["ro_bounds"][fid + 1]
            ],
        )
        self._frames[fid] = frame
        return frame

    def get(
        self,
        graph: str,
        scheduler: str,
        source: int,
        *,
        k: int | None = None,
        seed: int = 0,
    ) -> ScheduleFrame:
        """Like :meth:`lookup` + :meth:`frame_at`, but a miss raises."""
        fid = self.lookup(graph, scheduler, source, k=k, seed=seed)
        if fid is None:
            raise CorpusKeyError(
                f"corpus has no frame for graph={graph!r} "
                f"scheduler={scheduler!r} k={k} source={source} seed={seed}"
            )
        return self.frame_at(fid)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop the views and unmap.  The reader is unusable afterwards."""
        self._sections = {}
        self._frames = {}
        try:
            self._mmap.close()
        except BufferError:
            # a caller still holds zero-copy frames; the mapping lives
            # until they are collected, which is safe (read-only pages)
            pass
        self._file.close()

    def __enter__(self) -> "CorpusReader":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CorpusReader({str(self._path)!r}, frames={self._n_frames}, "
            f"groups={len(self._groups)})"
        )
