"""Writer → reader round trips: zero-copy slicing, lookup, engine fit."""

import numpy as np
import pytest

import repro.api as api
from repro.corpus import CorpusReader, CorpusWriter, build_corpus
from repro.errors import (
    CorpusError,
    CorpusFormatError,
    CorpusKeyError,
    error_code,
)
from repro.frame import ScheduleFrame

GRAPH = "hypercube:4"
SCHED = "greedy"
K = 2
SEED = 1


@pytest.fixture(scope="module")
def greedy_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "greedy.corpus"
    n = build_corpus(path, GRAPH, SCHED, k=K, seed=SEED)
    assert n == 16
    return path


class TestRoundTrip:
    def test_frames_identical_to_scheduler_output(self, greedy_corpus):
        graph = api.build_graph(GRAPH)
        with CorpusReader(greedy_corpus) as reader:
            assert reader.n_frames == 16
            for source in (0, 5, 15):
                frame = reader.get(GRAPH, SCHED, source, k=K, seed=SEED)
                direct = api.schedule(
                    graph, SCHED, source=source, k=K, seed=SEED
                ).frame
                assert frame == direct

    def test_lookup_miss_is_none(self, greedy_corpus):
        with CorpusReader(greedy_corpus) as reader:
            assert reader.lookup(GRAPH, SCHED, 99, k=K, seed=SEED) is None
            assert reader.lookup(GRAPH, SCHED, 0, k=K, seed=SEED + 1) is None
            assert reader.lookup(GRAPH, "search", 0, k=K, seed=SEED) is None
            assert reader.lookup(GRAPH, SCHED, 0, k=None, seed=SEED) is None

    def test_get_miss_raises_stable_code(self, greedy_corpus):
        with CorpusReader(greedy_corpus) as reader:
            with pytest.raises(CorpusKeyError) as excinfo:
                reader.get(GRAPH, SCHED, 99, k=K, seed=SEED)
            assert error_code(excinfo.value) == "corpus-miss"

    def test_zero_copy_and_read_only(self, greedy_corpus):
        with CorpusReader(greedy_corpus) as reader:
            frame = reader.frame_at(3)
            for plane, section in (
                (frame.path_verts, "path_verts"),
                (frame.call_offsets, "call_offsets"),
                (frame.round_offsets, "round_offsets"),
            ):
                assert not plane.flags.writeable
                assert np.shares_memory(plane, reader.section(section))
            # the cache hands back the same object, not a new slice
            assert reader.frame_at(3) is frame

    def test_stats_payload(self, greedy_corpus):
        with CorpusReader(greedy_corpus) as reader:
            stats = reader.stats()
        assert stats["n_frames"] == 16
        assert stats["n_groups"] == 1
        assert stats["groups"][0] == {
            "graph": GRAPH,
            "scheduler": SCHED,
            "k": K,
            "seed": SEED,
            "lo": 0,
            "hi": 16,
        }


class TestEngineIntegration:
    def test_mmap_frames_validate_on_every_engine(self, greedy_corpus):
        graph = api.build_graph(GRAPH)
        with CorpusReader(greedy_corpus) as reader:
            frame = reader.get(GRAPH, SCHED, 7, k=K, seed=SEED)
            for engine in ("reference", "fast", "batch"):
                report = api.validate(graph, frame, K, engine=engine)
                report = report[0] if isinstance(report, list) else report
                assert report.ok, (engine, report.errors)


class TestSchemeMode:
    def test_scheme_corpus_all_sources_validate(self, tmp_path):
        path = tmp_path / "scheme.corpus"
        n = build_corpus(path, "sparse:5:2", "scheme")
        assert n == 32
        sh = api.construction("sparse:5:2")
        with CorpusReader(path) as reader:
            sources = reader.section("source")
            assert sources.tolist() == list(range(32))
            for source in (0, 9, 31):
                frame = reader.get("sparse:5:2", "scheme", source)
                assert frame.source == source
                report = api.validate(sh.graph, frame, sh.k, engine="fast")
                assert report.ok, report.errors

    def test_scheme_source_subset(self, tmp_path):
        path = tmp_path / "subset.corpus"
        n = build_corpus(path, "sparse:5:2", "scheme", sources=[3, 1, 8])
        assert n == 3
        with CorpusReader(path) as reader:
            assert reader.section("source").tolist() == [1, 3, 8]


class TestWriterContract:
    def frame(self, source):
        return ScheduleFrame.from_paths(source, [[(source, source + 1)]])

    def test_descending_sources_rejected(self, tmp_path):
        writer = CorpusWriter(tmp_path / "bad.corpus")
        writer.add_frame("g", "s", self.frame(5))
        with pytest.raises(CorpusError, match="strictly ascending"):
            writer.add_frame("g", "s", self.frame(5))

    def test_reopened_group_rejected(self, tmp_path):
        writer = CorpusWriter(tmp_path / "bad.corpus")
        writer.add_frame("g", "s", self.frame(0))
        writer.add_frame("g2", "s", self.frame(0))
        with pytest.raises(CorpusError, match="already written"):
            writer.add_frame("g", "s", self.frame(1))

    def test_add_after_close_rejected(self, tmp_path):
        writer = CorpusWriter(tmp_path / "bad.corpus")
        writer.add_frame("g", "s", self.frame(0))
        writer.close()
        with pytest.raises(CorpusError, match="closed"):
            writer.add_frame("g", "s", self.frame(1))

    def test_multi_group_corpus(self, tmp_path):
        path = tmp_path / "multi.corpus"
        with CorpusWriter(path) as writer:
            writer.add_frame("g", "s", self.frame(0), k=2, seed=0)
            writer.add_frame("g", "s", self.frame(4), k=2, seed=0)
            writer.add_frame("g", "s", self.frame(1), k=2, seed=9)
        with CorpusReader(path) as reader:
            assert reader.n_frames == 3
            assert len(reader.groups) == 2
            assert reader.get("g", "s", 4, k=2, seed=0).source == 4
            assert reader.get("g", "s", 1, k=2, seed=9).source == 1

    def test_failed_build_leaves_no_file(self, tmp_path):
        from repro.types import ReproError

        path = tmp_path / "never.corpus"
        with pytest.raises(ReproError):
            build_corpus(path, GRAPH, SCHED, k=K, seed=SEED, sources=[999])
        assert not path.exists()


class TestReaderRejections:
    def test_not_a_corpus_file(self, tmp_path):
        path = tmp_path / "noise.corpus"
        path.write_bytes(b"x" * 100)
        with pytest.raises(CorpusFormatError, match="magic"):
            CorpusReader(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.corpus"
        path.write_bytes(b"")
        with pytest.raises(CorpusFormatError, match="empty"):
            CorpusReader(path)

    def test_truncated_file(self, greedy_corpus, tmp_path):
        data = greedy_corpus.read_bytes()
        path = tmp_path / "trunc.corpus"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorpusFormatError):
            CorpusReader(path)

    def test_frame_id_out_of_range(self, greedy_corpus):
        with CorpusReader(greedy_corpus) as reader:
            with pytest.raises(CorpusKeyError, match="out of range"):
                reader.frame_at(99)
