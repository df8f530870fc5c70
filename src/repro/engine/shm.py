"""Zero-copy plane store: frame/CSR arrays in shared memory.

A multi-process consumer moves NumPy planes between processes without
pickling array payloads:

* the **parent** exports arrays once into named
  ``multiprocessing.shared_memory`` segments through a
  :class:`PlaneRegistry` (a context manager that owns the segments and
  guarantees unlink on exit or error — the only place in the repo
  allowed to create ``SharedMemory``, enforced by lint rule RL009);
* what crosses the process boundary is a tiny :class:`PlaneHandle`
  (backend + segment name + dtype + shape — a few hundred bytes however
  large the plane);
* **workers** call ``handle.attach()`` and get a read-only NumPy view
  directly over the shared pages — no copies.  :class:`FrameHandle` and
  :class:`GraphHandle` bundle the planes of one
  :class:`~repro.frame.ScheduleFrame` / one frozen
  :class:`~repro.graphs.base.Graph` and reattach them as full objects
  (``ScheduleFrame``'s constructor takes the contiguous int64 views
  as-is; ``Graph.from_csr`` installs them as the graph's CSR cache).

Where POSIX shared memory is unavailable the registry falls back to
plain files in a temporary directory attached via ``np.memmap`` — same
handles, same zero-copy reads through the page cache.  ``REPRO_SHM=shm``
or ``REPRO_SHM=mmap`` forces a backend; the default probes once per
process.

Every export/attach fault (including ones injected by
:mod:`repro.devtools.chaos`) surfaces as
:class:`~repro.errors.ShmAttachError`, never as a raw ``OSError``.

CPython ≤ 3.12 registers *attached* segments with the resource tracker
as if they were owned (python/cpython#82300); :func:`_attach_segment`
documents why that is harmless inside one pool's process tree (shared
tracker, set-dedup'd names) and uses ``track=False`` on 3.13+ where the
proper knob exists.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType
from typing import Literal

import numpy as np

from repro.devtools import chaos
from repro.errors import ShmAttachError
from repro.frame import ScheduleFrame
from repro.graphs.base import Graph

__all__ = [
    "Backend",
    "PlaneHandle",
    "FrameHandle",
    "GraphHandle",
    "PlaneRegistry",
    "default_backend",
    "detach_all",
]

Backend = Literal["shm", "mmap"]

_PROBED_BACKEND: Backend | None = None


def default_backend() -> Backend:
    """The plane backend for this process.

    ``REPRO_SHM=shm|mmap`` forces a choice (any other non-empty value
    is an error — a typo must not silently fall back to the probe when
    tests/CI force a backend); otherwise POSIX shared memory is probed
    once (create + unlink a 1-byte segment) and the mmap-file fallback
    is used where that fails (e.g. no ``/dev/shm``).
    """
    global _PROBED_BACKEND
    forced = os.environ.get("REPRO_SHM", "").strip().lower()
    if forced in ("shm", "mmap"):
        return forced  # type: ignore[return-value]
    if forced:
        raise ValueError(
            f"REPRO_SHM must be 'shm', 'mmap', or unset, got {forced!r}"
        )
    if _PROBED_BACKEND is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=1)
            seg.close()
            seg.unlink()
            _PROBED_BACKEND = "shm"
        except (OSError, ValueError):
            _PROBED_BACKEND = "mmap"
    return _PROBED_BACKEND


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming ownership.

    3.13+ has ``track=False`` for exactly this.  On ≤3.12 attaching
    auto-registers with the resource tracker (python/cpython#82300); in
    a pool the tracker process is *shared* by the whole process tree and
    its name cache is a set, so the duplicate registration is a no-op
    and the registry's ``unlink`` removes the name exactly once — no
    extra unregister needed (one would corrupt the shared accounting).
    The ordering contract that keeps this true: workers attach strictly
    before the owning registry unlinks (pool joins first).
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


# Process-local attach cache: (backend, name) -> (buffer owner, base
# array).  Keeps each segment mapped exactly once per process however
# many handles reference it, and keeps the owner alive as long as views
# may exist.
_ATTACHED: dict[tuple[str, str], tuple[object, np.ndarray]] = {}


def detach_all() -> None:
    """Drop this process's attach cache and close its segment mappings.

    Safe to call at any point (worker shutdown, test teardown); views
    already handed out keep their segment mapped until they are garbage
    collected (``close`` on a still-viewed segment is skipped).
    """
    owners = [owner for owner, _ in _ATTACHED.values()]
    _ATTACHED.clear()  # frees the base arrays first so close() can succeed
    for owner in owners:
        if isinstance(owner, shared_memory.SharedMemory):
            try:
                owner.close()
            except BufferError:  # live views outside the cache
                pass


@dataclass(frozen=True)
class PlaneHandle:
    """One exported array: pickles as names + dtype + shape, never data."""

    backend: Backend
    name: str
    dtype: str
    shape: tuple[int, ...]

    def attach(self) -> np.ndarray:
        """A read-only view over the shared plane (cached per process).

        Raises :class:`~repro.errors.ShmAttachError` when the segment or
        backing file cannot be mapped (gone, truncated, permission, or a
        chaos-injected failure).
        """
        key = (self.backend, self.name)
        cached = _ATTACHED.get(key)
        if cached is None:
            if chaos.should_fail_attach():
                raise ShmAttachError(
                    f"chaos-injected attach failure for plane {self.name!r}",
                    name=self.name,
                )
            try:
                if self.backend == "shm":
                    seg = _attach_segment(self.name)
                    base = np.frombuffer(seg.buf, dtype=np.uint8)
                    cached = (seg, base)
                else:
                    size = os.path.getsize(self.name)
                    if size == 0:
                        base = np.empty(0, dtype=np.uint8)
                    else:
                        base = np.memmap(self.name, dtype=np.uint8, mode="r")
                    cached = (None, base)
            except (OSError, ValueError) as exc:
                raise ShmAttachError(
                    f"cannot attach plane {self.name!r}: {exc}", name=self.name
                ) from exc
            _ATTACHED[key] = cached
        _, base = cached
        dtype = np.dtype(self.dtype)
        count = int(np.prod(self.shape, dtype=np.int64))
        try:
            arr = base[: count * dtype.itemsize].view(dtype).reshape(self.shape)
        except ValueError as exc:  # truncated segment/file
            raise ShmAttachError(
                f"plane {self.name!r} too small for {self.dtype}{self.shape}: "
                f"{exc}",
                name=self.name,
            ) from exc
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class FrameHandle:
    """A :class:`ScheduleFrame` as three plane handles plus its source."""

    source: int
    path_verts: PlaneHandle
    call_offsets: PlaneHandle
    round_offsets: PlaneHandle

    def attach(self) -> ScheduleFrame:
        """Rebuild the frame over shared planes (zero-copy: the frame
        constructor keeps contiguous read-only int64 inputs as-is)."""
        return ScheduleFrame(
            source=self.source,
            path_verts=self.path_verts.attach(),
            call_offsets=self.call_offsets.attach(),
            round_offsets=self.round_offsets.attach(),
        )


@dataclass(frozen=True)
class GraphHandle:
    """A frozen graph's CSR adjacency as two plane handles."""

    indptr: PlaneHandle
    indices: PlaneHandle

    def attach(self) -> Graph:
        """Rebuild the frozen graph; the shared CSR views become the
        graph's CSR cache, so vectorized sweeps stay zero-copy."""
        return Graph.from_csr(self.indptr.attach(), self.indices.attach())


class PlaneRegistry:
    """Owner of exported planes; guarantees unlink on exit or error.

    Use as a context manager around the full parallel region — workers
    must have joined (detached) before ``close`` runs, so the pool nests
    inside the registry:

    >>> with PlaneRegistry() as reg:
    ...     handle = reg.export_frame(frame)
    ...     ...  # hand `handle` to workers; join the pool
    """

    def __init__(self, backend: Backend | None = None) -> None:
        self.backend: Backend = backend if backend is not None else default_backend()
        self._segments: list[shared_memory.SharedMemory] = []
        self._tmpdir: str | None = None
        # id(arr) -> (arr, handle).  The array reference PINS the caller's
        # object for the registry's lifetime: without it CPython could
        # garbage-collect an exported array and reuse its address for a
        # different array, making the identity-keyed dedup silently
        # return a stale handle (wrong plane attached in workers).
        self._by_id: dict[int, tuple[np.ndarray, PlaneHandle]] = {}
        self._n_planes = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> PlaneRegistry:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        """Unlink every exported segment / remove the mmap directory.

        Idempotent; called from ``__exit__`` so an exception anywhere in
        the managed block still releases all shared memory.
        """
        if self._closed:
            return
        self._closed = True
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - export leaks no views
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        if self._tmpdir is not None:
            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None
        self._by_id.clear()

    # -- export ------------------------------------------------------------

    def export(self, arr: np.ndarray) -> PlaneHandle:
        """Copy ``arr`` into a shared plane once; returns its handle.

        Re-exporting the same array object returns the existing handle
        (identity-keyed), so frames sharing planes are stored once.
        """
        if self._closed:
            raise RuntimeError("PlaneRegistry is closed")
        pinned = self._by_id.get(id(arr))
        if pinned is not None:
            return pinned[1]
        if chaos.should_fail_export():
            raise ShmAttachError("chaos-injected export failure")
        contig = np.ascontiguousarray(arr)
        try:
            if self.backend == "shm":
                seg = shared_memory.SharedMemory(
                    create=True, size=max(1, contig.nbytes)
                )
                dst = np.frombuffer(seg.buf, dtype=np.uint8)
                dst[: contig.nbytes] = contig.view(np.uint8).reshape(-1)
                del dst
                self._segments.append(seg)
                name = seg.name
            else:
                if self._tmpdir is None:
                    self._tmpdir = tempfile.mkdtemp(prefix="repro-planes-")
                name = os.path.join(
                    self._tmpdir, f"plane-{self._n_planes:04d}.bin"
                )
                contig.tofile(name)
        except OSError as exc:  # /dev/shm full, tmpdir unwritable, ...
            raise ShmAttachError(f"cannot export plane: {exc}") from exc
        self._n_planes += 1
        handle = PlaneHandle(self.backend, name, str(contig.dtype), contig.shape)
        self._by_id[id(arr)] = (arr, handle)
        return handle

    def export_frame(self, frame: ScheduleFrame) -> FrameHandle:
        """Export one frame's three call-array planes."""
        return FrameHandle(
            source=frame.source,
            path_verts=self.export(frame.path_verts),
            call_offsets=self.export(frame.call_offsets),
            round_offsets=self.export(frame.round_offsets),
        )

    def export_graph(self, graph: Graph) -> GraphHandle:
        """Export a frozen graph's CSR planes."""
        indptr, indices = graph.csr_arrays()
        return GraphHandle(indptr=self.export(indptr), indices=self.export(indices))
