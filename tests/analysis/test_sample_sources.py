"""Regression tests for the source-sampling helper.

The seed implementation returned ``cap + 1`` sources whenever
``n_vertices - 1`` was appended after truncation; these tests pin the
fixed contract: never more than ``cap`` sources, endpoints always in.
"""

import pytest

from repro.analysis.common import sample_sources
from repro.types import InvalidParameterError


class TestSampleSources:
    def test_small_n_returns_every_vertex(self):
        assert sample_sources(5, 8) == [0, 1, 2, 3, 4]
        assert sample_sources(8, 8) == list(range(8))
        assert sample_sources(1, 4) == [0]
        assert sample_sources(0, 4) == []

    def test_boundary_just_above_cap_respects_cap(self):
        # the regression case: n_vertices > cap by one
        srcs = sample_sources(13, 12)
        assert len(srcs) <= 12
        assert 0 in srcs and 12 in srcs

    def test_seed_bug_cases_respect_cap(self):
        # the exact shapes the experiments hit: the seed returned 13 and
        # 17 sources here (cap + 1)
        for n, cap in [(94, 12), (22, 12), (46, 12), (1 << 10, 16), (256, 16)]:
            srcs = sample_sources(n, cap)
            assert len(srcs) <= cap, (n, cap, srcs)
            assert srcs[0] == 0
            assert srcs[-1] == n - 1

    @pytest.mark.parametrize("n", [3, 10, 17, 64, 100, 1023, 4096])
    @pytest.mark.parametrize("cap", [2, 3, 8, 12, 16])
    def test_contract_sweep(self, n, cap):
        srcs = sample_sources(n, cap)
        assert len(srcs) <= max(cap, n if n <= cap else cap)
        assert len(set(srcs)) == len(srcs)
        assert srcs == sorted(srcs)
        assert all(0 <= s < n for s in srcs)
        assert 0 in srcs
        assert n - 1 in srcs
        if n > cap:
            assert len(srcs) <= cap

    def test_deterministic(self):
        assert sample_sources(1000, 10) == sample_sources(1000, 10)

    def test_cap_below_two_rejected_when_sampling_needed(self):
        with pytest.raises(InvalidParameterError):
            sample_sources(10, 1)
        # no sampling needed → no error
        assert sample_sources(1, 1) == [0]
