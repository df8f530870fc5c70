"""The structured error taxonomy and its capture helper."""

import pytest

from repro.errors import (
    ExecutionError,
    ReproError,
    ScenarioError,
    TaskTimeout,
    WorkerCrash,
    captured_call,
    format_cause,
)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ExecutionError, ReproError)
        for cls in (WorkerCrash, TaskTimeout):
            assert issubclass(cls, ExecutionError)
        assert issubclass(ScenarioError, ReproError)
        # scenario failures are deterministic, never a retryable fault
        assert not issubclass(ScenarioError, ExecutionError)

    def test_worker_crash_carries_exitcode_and_attempts(self):
        err = WorkerCrash("worker died", exitcode=-9, attempts=3)
        assert err.exitcode == -9
        assert err.attempts == 3
        assert "worker died" in str(err)

    def test_task_timeout_carries_deadline(self):
        err = TaskTimeout("task exceeded 1.5s deadline", attempts=2)
        assert "1.5s deadline" in str(err)
        assert err.attempts == 2

    def test_scenario_error_names_the_scenario(self):
        err = ScenarioError("g=path:8|s=greedy", "ValueError: boom")
        assert err.scenario_id == "g=path:8|s=greedy"
        assert err.cause == "ValueError: boom"
        assert "g=path:8|s=greedy" in str(err)
        assert "boom" in str(err)


class TestCapture:
    def test_ok_path_returns_value(self):
        assert captured_call(lambda: 41 + 1) == ("ok", 42)

    def test_error_path_returns_formatted_cause(self):
        def boom():
            raise ValueError("bad input")

        status, exc = captured_call(boom)
        assert status == "raise"
        assert format_cause(exc) == "ValueError: bad input"

    def test_arguments_pass_through(self):
        assert captured_call(divmod, 7, 3) == ("ok", (2, 1))

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            captured_call(interrupted)

    def test_captured_call_keeps_exception_object(self):
        original = ValueError("keep me")

        def boom():
            raise original

        status, exc = captured_call(boom)
        assert status == "raise"
        assert exc is original

    def test_format_cause(self):
        assert format_cause(RuntimeError("x")) == "RuntimeError: x"


class TestErrorCodes:
    """Every taxonomy class carries a stable ``code`` string.

    These strings appear verbatim in CLI exit-2 one-liners and in HTTP
    error bodies (``error.code``); they are append-only wire format —
    never rename one.
    """

    def test_codes_pinned(self):
        from repro.types import (
            ConstructionError,
            InvalidParameterError,
            InvalidScheduleError,
        )

        assert ReproError.code == "repro-error"
        assert InvalidParameterError.code == "invalid-parameter"
        assert InvalidScheduleError.code == "invalid-schedule"
        assert ConstructionError.code == "construction-error"
        assert ExecutionError.code == "execution-error"
        assert WorkerCrash.code == "worker-crash"
        assert TaskTimeout.code == "task-timeout"
        assert ScenarioError.code == "scenario-error"

    def test_error_code_uses_instance_code(self):
        from repro.errors import error_code

        assert error_code(WorkerCrash("x", exitcode=1, attempts=1)) == "worker-crash"
        assert error_code(ReproError("x")) == "repro-error"

    def test_error_code_maps_foreign_exceptions(self):
        from repro.errors import error_code

        assert error_code(KeyError("missing")) == "unknown-name"
        assert error_code(FileNotFoundError("gone")) == "io-error"
        assert error_code(ValueError("bad")) == "invalid-parameter"
        assert error_code(RuntimeError("boom")) == "internal-error"
