"""The zero-copy plane store: handles, registries, and leak guarantees.

Leak tests enumerate ``/dev/shm`` directly — the acceptance criterion
is that no segment survives a normal exit *or* an exception escaping
the managed block.
"""

import pickle

import numpy as np
import pytest

from repro.core.broadcast import broadcast_schedule
from repro.core.construct import construct_base
from repro.core.params import theorem5_m_star
from repro.engine.shm import (
    PlaneRegistry,
    default_backend,
    detach_all,
)
from repro.graphs.base import Graph
from repro.graphs.specs import graph_from_spec
from repro.model.validator_fast import FastValidator


def _shm_names():
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-POSIX dev box: nothing to leak-check
        return set()


@pytest.fixture(autouse=True)
def _detached():
    yield
    detach_all()


@pytest.fixture(params=["shm", "mmap"])
def backend(request):
    return request.param


def _frame(n=17, source=3):
    sh = construct_base(5, theorem5_m_star(5))
    return broadcast_schedule(sh, source).to_frame()


class TestPlaneHandle:
    def test_roundtrip_both_backends(self, backend):
        arr = np.arange(23, dtype=np.int64) * 7
        with PlaneRegistry(backend) as reg:
            handle = reg.export(arr)
            view = handle.attach()
            np.testing.assert_array_equal(view, arr)
            assert not view.flags.writeable
            assert view.dtype == np.int64

    def test_2d_and_empty_planes(self, backend):
        mat = np.arange(12, dtype=np.int64).reshape(3, 4)
        empty = np.empty(0, dtype=np.int64)
        with PlaneRegistry(backend) as reg:
            hm, he = reg.export(mat), reg.export(empty)
            np.testing.assert_array_equal(hm.attach(), mat)
            assert he.attach().size == 0

    def test_handle_pickles_small(self, backend):
        big = np.zeros(100_000, dtype=np.int64)
        with PlaneRegistry(backend) as reg:
            handle = reg.export(big)
            blob = pickle.dumps(handle)
            assert len(blob) < 1_000  # names + dtype + shape, never data
            clone = pickle.loads(blob)
            assert clone.attach().shape == big.shape

    def test_identity_dedup(self, backend):
        arr = np.arange(9, dtype=np.int64)
        with PlaneRegistry(backend) as reg:
            assert reg.export(arr) == reg.export(arr)

    def test_exported_arrays_are_pinned_against_address_reuse(self, backend):
        # Regression: dedup is keyed on id(arr), and CPython reuses a
        # dead array's address for later allocations.  The registry must
        # pin every exported array, or rebinding a loop variable makes
        # export return a stale handle for a *different* array.
        with PlaneRegistry(backend) as reg:
            handles, expected = [], []
            for i in range(50):
                arr = np.full(64, i, dtype=np.int64)
                handles.append(reg.export(arr))
                expected.append(arr.copy())
                del arr  # without the pin, the next iteration likely
                # allocates at the same address and dedups wrongly
            assert len({h.name for h in handles}) == len(handles)
            for handle, want in zip(handles, expected):
                np.testing.assert_array_equal(handle.attach(), want)

    def test_noncontiguous_input_dedups_by_original_identity(self, backend):
        arr = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]
        assert not arr.flags.c_contiguous
        with PlaneRegistry(backend) as reg:
            handle = reg.export(arr)
            assert reg.export(arr) == handle  # keyed on arr, not the copy
            np.testing.assert_array_equal(handle.attach(), arr)

    def test_closed_registry_rejects_export(self, backend):
        reg = PlaneRegistry(backend)
        reg.close()
        with pytest.raises(RuntimeError, match="closed"):
            reg.export(np.arange(3, dtype=np.int64))

    def test_close_is_idempotent(self, backend):
        reg = PlaneRegistry(backend)
        reg.export(np.arange(3, dtype=np.int64))
        reg.close()
        reg.close()


class TestFrameAndGraphHandles:
    def test_frame_attach_equals_original(self, backend):
        frame = _frame()
        with PlaneRegistry(backend) as reg:
            clone = reg.export_frame(frame).attach()
            assert clone == frame
            assert clone.source == frame.source
            np.testing.assert_array_equal(clone.path_verts, frame.path_verts)

    def test_frame_planes_attach_zero_copy(self, backend):
        frame = _frame()
        with PlaneRegistry(backend) as reg:
            handle = reg.export_frame(frame)
            clone = handle.attach()
            again = handle.attach()
            # both frames view the same attached base buffer — no copy
            # per attach (ascontiguousarray kept the shared view as-is)
            assert clone.path_verts.base is not None
            assert again.path_verts.base is not None

    def test_graph_attach_equals_original(self, backend):
        graph = graph_from_spec("hypercube:4")
        with PlaneRegistry(backend) as reg:
            clone = reg.export_graph(graph).attach()
            assert clone.frozen
            assert clone == graph
            indptr, indices = clone.csr_arrays()
            np.testing.assert_array_equal(indptr, graph.csr_arrays()[0])
            assert not indptr.flags.writeable and not indices.flags.writeable

    def test_attached_frame_validates_identically(self, backend):
        sh = construct_base(5, theorem5_m_star(5))
        frame = broadcast_schedule(sh, 3).to_frame()
        with PlaneRegistry(backend) as reg:
            graph = reg.export_graph(sh.graph).attach()
            clone = reg.export_frame(frame).attach()
            # FastValidator directly: the engine cache would pin the
            # attached graph (and its shared views) past the registry.
            a = FastValidator(sh.graph).validate(frame, sh.k)
            b = FastValidator(graph).validate(clone, sh.k)
            assert (a.ok, a.errors, a.informed_per_round, a.max_call_length) == (
                b.ok,
                b.errors,
                b.informed_per_round,
                b.max_call_length,
            )


class TestGraphFromCsr:
    def test_roundtrip(self):
        graph = graph_from_spec("hypercube:4")
        clone = Graph.from_csr(*graph.csr_arrays())
        assert clone == graph and clone.frozen

    def test_readonly_arrays_become_the_csr_cache(self):
        graph = graph_from_spec("hypercube:3")
        indptr, indices = graph.csr_arrays()
        clone = Graph.from_csr(indptr, indices)
        assert clone.csr_arrays()[0] is indptr
        assert clone.csr_arrays()[1] is indices

    def test_bad_shapes_rejected(self):
        from repro.types import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            Graph.from_csr(np.array([1, 2]), np.array([0]))
        with pytest.raises(InvalidParameterError):
            Graph.from_csr(np.array([0, 2]), np.array([1]))


class TestNoLeaks:
    def test_normal_exit_leaves_no_segments(self):
        before = _shm_names()
        with PlaneRegistry("shm") as reg:
            reg.export(np.arange(1000, dtype=np.int64))
            reg.export_frame(_frame())
        assert _shm_names() <= before

    def test_exception_exit_leaves_no_segments(self):
        before = _shm_names()
        with pytest.raises(RuntimeError, match="boom"):
            with PlaneRegistry("shm") as reg:
                reg.export(np.arange(1000, dtype=np.int64))
                raise RuntimeError("boom")
        assert _shm_names() <= before

    def test_mmap_backend_removes_tempdir(self, tmp_path):
        import os

        reg = PlaneRegistry("mmap")
        reg.export(np.arange(10, dtype=np.int64))
        tmpdir = reg._tmpdir
        assert tmpdir is not None and os.path.isdir(tmpdir)
        reg.close()
        assert not os.path.exists(tmpdir)


class TestBackendSelection:
    def test_env_forces_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "mmap")
        assert default_backend() == "mmap"
        monkeypatch.setenv("REPRO_SHM", "shm")
        assert default_backend() == "shm"

    def test_probe_returns_a_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert default_backend() in ("shm", "mmap")

    def test_invalid_env_value_raises(self, monkeypatch):
        # A typo must not silently fall through to the probe when
        # tests/CI meant to force a backend.
        monkeypatch.setenv("REPRO_SHM", "map")
        with pytest.raises(ValueError, match="REPRO_SHM"):
            default_backend()
