"""Fixture tests for every lint rule: a known-bad snippet is flagged
with the right rule id and line, and its known-good twin passes.

Each fixture is written to a path shaped like the real tree (rules
scope themselves by path fragments such as ``repro/engine/``), then run
through :func:`lint_file` with exactly one rule.
"""

import textwrap

import pytest

from repro.devtools.analyzer import (
    UNUSED_SUPPRESSION_ID,
    lint_file,
    lint_paths,
)
from repro.devtools.registry import get_rule, rule_ids


def run_rule(tmp_path, source, rule_id, relpath="repro/somemod.py"):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path, [get_rule(rule_id)])


def assert_flagged(violations, rule_id, line):
    assert [(v.rule_id, v.line) for v in violations] == [(rule_id, line)], (violations)


class TestRL001GlobalRNG:
    def test_module_global_random_flagged(self, tmp_path):
        bad = """\
            import random


            def pick():
                return random.random()
            """
        assert_flagged(run_rule(tmp_path, bad, "RL001"), "RL001", 5)

    def test_unseeded_random_instance_flagged(self, tmp_path):
        bad = """\
            import random

            rng = random.Random()
            """
        assert_flagged(run_rule(tmp_path, bad, "RL001"), "RL001", 3)

    def test_seeded_random_instance_passes(self, tmp_path):
        good = """\
            import random

            rng = random.Random(7)
            """
        assert run_rule(tmp_path, good, "RL001") == []

    def test_numpy_module_global_flagged(self, tmp_path):
        bad = """\
            import numpy as np


            def noise(n):
                return np.random.rand(n)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL001"), "RL001", 5)

    def test_seeded_default_rng_passes(self, tmp_path):
        good = """\
            import numpy as np


            def noise(n, seed):
                return np.random.default_rng(seed).random(n)
            """
        assert run_rule(tmp_path, good, "RL001") == []

    def test_local_variable_named_random_passes(self, tmp_path):
        good = """\
            def pick(random):
                return random.random()
            """
        assert run_rule(tmp_path, good, "RL001") == []

    def test_test_files_exempt(self, tmp_path):
        bad = """\
            import random


            def pick():
                return random.random()
            """
        assert run_rule(tmp_path, bad, "RL001", "repro/test_pick.py") == []


class TestRL002JsonSortKeys:
    def test_unsorted_dumps_flagged(self, tmp_path):
        bad = """\
            import json


            def save(d):
                return json.dumps(d, indent=1)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL002"), "RL002", 5)

    def test_sorted_dumps_passes(self, tmp_path):
        good = """\
            import json


            def save(d):
                return json.dumps(d, indent=1, sort_keys=True)
            """
        assert run_rule(tmp_path, good, "RL002") == []

    def test_from_import_alias_resolved(self, tmp_path):
        bad = """\
            from json import dumps as jd


            def save(d):
                return jd(d)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL002"), "RL002", 5)

    def test_suppression_silences(self, tmp_path):
        suppressed = """\
            import json


            def save(d):
                return json.dumps(d)  # repro-lint: disable=RL002 (pinned v1)
            """
        assert run_rule(tmp_path, suppressed, "RL002") == []

    def test_unused_suppression_flagged(self, tmp_path):
        stale = """\
            import json


            def save(d):
                return json.dumps(d, sort_keys=True)  # repro-lint: disable=RL002
            """
        violations = run_rule(tmp_path, stale, "RL002")
        assert_flagged(violations, UNUSED_SUPPRESSION_ID, 5)
        assert "RL002" in violations[0].message


class TestRL003FrozenMutation:
    def test_setattr_on_non_self_flagged(self, tmp_path):
        bad = """\
            def attach(frame, layout):
                object.__setattr__(frame, "_layout", layout)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL003"), "RL003", 2)

    def test_setattr_on_self_passes(self, tmp_path):
        good = """\
            class Frozen:
                def __init__(self):
                    object.__setattr__(self, "x", 1)
            """
        assert run_rule(tmp_path, good, "RL003") == []

    def test_builder_modules_exempt(self, tmp_path):
        bad = """\
            def attach(frame, layout):
                object.__setattr__(frame, "_layout", layout)
            """
        assert run_rule(tmp_path, bad, "RL003", "repro/frame.py") == []


class TestRL004RegistryEntryPoints:
    def test_strategy_import_outside_package_flagged(self, tmp_path):
        bad = """\
            from repro.schedulers.greedy import heuristic_line_broadcast
            """
        violations = run_rule(tmp_path, bad, "RL004", "repro/analysis/foo.py")
        assert_flagged(violations, "RL004", 1)

    def test_facade_import_passes(self, tmp_path):
        good = """\
            from repro.schedulers import run_scheduler
            """
        assert run_rule(tmp_path, good, "RL004", "repro/analysis/foo.py") == []

    def test_import_inside_owning_package_passes(self, tmp_path):
        ok = """\
            from repro.schedulers.greedy import heuristic_line_broadcast
            """
        assert run_rule(tmp_path, ok, "RL004", "repro/schedulers/foo.py") == []

    def test_registry_module_exempt_everywhere(self, tmp_path):
        ok = """\
            from repro.schedulers.registry import run_scheduler
            """
        assert run_rule(tmp_path, ok, "RL004", "repro/analysis/foo.py") == []

    def test_experiment_module_import_flagged(self, tmp_path):
        bad = """\
            import repro.analysis.exp_theorems
            """
        assert_flagged(
            run_rule(tmp_path, bad, "RL004", "repro/core/foo.py"), "RL004", 1
        )


class TestRL005FanOutPicklable:
    def test_lambda_flagged(self, tmp_path):
        bad = """\
            from repro.util.pool import WorkerPool


            def go(tasks):
                with WorkerPool(2) as pool:
                    return pool.map(lambda t: t, tasks)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL005"), "RL005", 6)

    def test_nested_function_flagged(self, tmp_path):
        bad = """\
            from repro.util.pool import WorkerPool


            def go(tasks):
                def work(t):
                    return t

                with WorkerPool(2) as pool:
                    return pool.map_quarantine(work, tasks)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL005"), "RL005", 9)

    def test_bound_method_flagged(self, tmp_path):
        bad = """\
            from repro.util.pool import WorkerPool


            class Runner:
                def go(self, tasks):
                    with WorkerPool(2) as pool:
                        return pool.map(self.work, tasks)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL005"), "RL005", 7)

    def test_lambda_submit_flagged(self, tmp_path):
        bad = """\
            from repro.util.pool import WorkerPool


            async def go(pool: WorkerPool, item):
                return await pool.submit(lambda t: t, item)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL005"), "RL005", 5)

    def test_lambda_initializer_flagged(self, tmp_path):
        bad = """\
            from repro.util.pool import WorkerPool


            def go(work, tasks):
                with WorkerPool(2, initializer=lambda: None) as pool:
                    return pool.map(work, tasks)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL005"), "RL005", 5)

    def test_module_level_function_passes(self, tmp_path):
        good = """\
            from repro.util.pool import WorkerPool


            def warm():
                pass


            def work(t):
                return t


            def go(tasks):
                with WorkerPool(2, initializer=warm) as pool:
                    return pool.map(work, tasks)


            async def one(pool, item):
                return await pool.submit(work, item)
            """
        assert run_rule(tmp_path, good, "RL005") == []


class TestRL006WallClock:
    def test_time_time_flagged(self, tmp_path):
        bad = """\
            import time


            def stamp():
                return time.time()
            """
        assert_flagged(run_rule(tmp_path, bad, "RL006"), "RL006", 5)

    def test_datetime_now_flagged(self, tmp_path):
        bad = """\
            from datetime import datetime


            def stamp():
                return datetime.now().isoformat()
            """
        assert_flagged(run_rule(tmp_path, bad, "RL006"), "RL006", 5)

    def test_perf_counter_passes(self, tmp_path):
        good = """\
            import time


            def measure():
                return time.perf_counter()
            """
        assert run_rule(tmp_path, good, "RL006") == []


class TestRL007WriteableArrayEscape:
    BAD = """\
        import numpy as np


        class Cache:
            def __init__(self, n):
                self._buf = np.zeros(n)

            def data(self):
                return self._buf
        """

    def test_writeable_internal_array_flagged(self, tmp_path):
        violations = run_rule(tmp_path, self.BAD, "RL007", "repro/engine/c.py")
        assert_flagged(violations, "RL007", 9)
        assert "_buf" in violations[0].message

    def test_out_of_scope_files_exempt(self, tmp_path):
        assert run_rule(tmp_path, self.BAD, "RL007", "repro/analysis/c.py") == []

    def test_setflags_frozen_passes(self, tmp_path):
        good = """\
            import numpy as np


            class Cache:
                def __init__(self, n):
                    self._buf = np.zeros(n)
                    self._buf.setflags(write=False)

                def data(self):
                    return self._buf
            """
        assert run_rule(tmp_path, good, "RL007", "repro/engine/c.py") == []

    def test_copy_passes(self, tmp_path):
        good = """\
            import numpy as np


            class Cache:
                def __init__(self, n):
                    self._buf = np.zeros(n)

                def data(self):
                    return self._buf.copy()
            """
        assert run_rule(tmp_path, good, "RL007", "repro/engine/c.py") == []

    def test_local_frozen_before_store_passes(self, tmp_path):
        good = """\
            import numpy as np


            class Cache:
                def __init__(self, n):
                    buf = np.zeros(n)
                    buf.setflags(write=False)
                    self._buf = buf

                def data(self):
                    return self._buf
            """
        assert run_rule(tmp_path, good, "RL007", "repro/engine/c.py") == []


class TestRL008SetIteration:
    def test_for_over_set_call_flagged(self, tmp_path):
        bad = """\
            def collect(xs):
                out = []
                for x in set(xs):
                    out.append(x)
                return out
            """
        assert_flagged(run_rule(tmp_path, bad, "RL008"), "RL008", 3)

    def test_sorted_wrap_passes(self, tmp_path):
        good = """\
            def collect(xs):
                out = []
                for x in sorted(set(xs)):
                    out.append(x)
                return out
            """
        assert run_rule(tmp_path, good, "RL008") == []

    def test_comprehension_over_set_variable_flagged(self, tmp_path):
        bad = """\
            def collect():
                items = {1, 2, 3}
                return [x for x in items]
            """
        assert_flagged(run_rule(tmp_path, bad, "RL008"), "RL008", 3)

    def test_order_insensitive_consumers_pass(self, tmp_path):
        good = """\
            def total():
                return sum(x for x in {1, 2, 3})
            """
        assert run_rule(tmp_path, good, "RL008") == []

    def test_list_over_set_flagged(self, tmp_path):
        bad = """\
            def collect(xs):
                return list(set(xs))
            """
        assert_flagged(run_rule(tmp_path, bad, "RL008"), "RL008", 2)

    def test_membership_tests_pass(self, tmp_path):
        good = """\
            def has(xs, y):
                pool = set(xs)
                return y in pool
            """
        assert run_rule(tmp_path, good, "RL008") == []


class TestRL010FaultHandlingBoundaries:
    def test_ad_hoc_sleep_retry_loop_flagged(self, tmp_path):
        bad = """\
            import time


            def fetch(fn):
                for _ in range(3):
                    try:
                        return fn()
                    except ValueError:
                        time.sleep(0.5)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL010"), "RL010", 9)

    def test_broad_except_exception_flagged(self, tmp_path):
        bad = """\
            def run(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """
        assert_flagged(run_rule(tmp_path, bad, "RL010"), "RL010", 4)

    def test_bare_except_flagged(self, tmp_path):
        bad = """\
            def run(fn):
                try:
                    return fn()
                except:  # noqa: E722
                    return None
            """
        assert_flagged(run_rule(tmp_path, bad, "RL010"), "RL010", 4)

    def test_broad_catch_in_tuple_flagged(self, tmp_path):
        bad = """\
            def run(fn):
                try:
                    return fn()
                except (ValueError, Exception):
                    return None
            """
        assert_flagged(run_rule(tmp_path, bad, "RL010"), "RL010", 4)

    def test_specific_exceptions_pass(self, tmp_path):
        good = """\
            def run(fn):
                try:
                    return fn()
                except (ValueError, OSError):
                    return None
            """
        assert run_rule(tmp_path, good, "RL010") == []

    def test_retry_module_boundary_passes(self, tmp_path):
        good = """\
            import time


            def pause(seconds):
                time.sleep(seconds)
            """
        assert run_rule(tmp_path, good, "RL010", "repro/util/retry.py") == []

    def test_errors_module_boundary_passes(self, tmp_path):
        good = """\
            def capture(fn):
                try:
                    return "ok", fn()
                except Exception as exc:
                    return "error", str(exc)
            """
        assert run_rule(tmp_path, good, "RL010", "repro/errors.py") == []

    def test_chaos_module_boundary_passes(self, tmp_path):
        good = """\
            import time


            def on_task(delay):
                time.sleep(delay)
            """
        assert run_rule(tmp_path, good, "RL010", "repro/devtools/chaos.py") == []

    def test_local_sleep_name_passes(self, tmp_path):
        good = """\
            def wait(times):
                def sleep(x):
                    return x
                return [sleep(t) for t in times]
            """
        assert run_rule(tmp_path, good, "RL010") == []


class TestRL011CorpusFormatContainment:
    def test_struct_unpack_flagged(self, tmp_path):
        bad = """\
            import struct


            def sniff(buf):
                return struct.unpack("<8sII16s", buf[:32])
            """
        assert_flagged(run_rule(tmp_path, bad, "RL011"), "RL011", 5)

    def test_mmap_flagged(self, tmp_path):
        bad = """\
            import mmap


            def load(fh):
                return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            """
        assert_flagged(run_rule(tmp_path, bad, "RL011"), "RL011", 5)

    def test_np_memmap_flagged(self, tmp_path):
        bad = """\
            import numpy as np


            def load(path):
                return np.memmap(path, dtype="<i8")
            """
        assert_flagged(run_rule(tmp_path, bad, "RL011"), "RL011", 5)

    def test_corpus_package_exempt(self, tmp_path):
        good = """\
            import mmap
            import struct


            def load(fh):
                struct.unpack("<QQ8s", fh.read(24))
                return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            """
        assert (
            run_rule(tmp_path, good, "RL011", relpath="repro/corpus/reader.py")
            == []
        )

    def test_reader_usage_passes(self, tmp_path):
        good = """\
            from repro.corpus import CorpusReader


            def frames(path):
                with CorpusReader(path) as reader:
                    return reader.n_frames
            """
        assert run_rule(tmp_path, good, "RL011") == []

    def test_unrelated_struct_name_passes(self, tmp_path):
        good = """\
            class struct:
                @staticmethod
                def unpack(fmt, buf):
                    return ()


            def sniff(buf):
                return struct.unpack("x", buf)
            """
        assert run_rule(tmp_path, good, "RL011") == []


class TestEveryRuleHasFixture:
    def test_all_registered_rules_are_exercised_above(self):
        exercised = {
            name.removeprefix("TestRL")[:3]
            for name in globals()
            if name.startswith("TestRL")
        }
        assert {f"RL{suffix}" for suffix in exercised} == set(rule_ids())

    def test_at_least_eight_rules_registered(self):
        assert len(rule_ids()) >= 8


class TestSelfApplication:
    def test_repro_lint_src_is_clean(self, repo_root):
        report = lint_paths([repo_root / "src"])
        assert report.violations == [], [str(v) for v in report.violations]
        assert report.n_files > 50
        assert len(report.rule_ids) >= 8


@pytest.fixture
def repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parents[2]
