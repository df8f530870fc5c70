"""RetryPolicy: bounded attempts and deadlines."""

import dataclasses

import pytest

from repro.types import InvalidParameterError
from repro.util.retry import DEFAULT_MAX_ATTEMPTS, RetryPolicy


class TestConstruction:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == DEFAULT_MAX_ATTEMPTS
        assert policy.retries == DEFAULT_MAX_ATTEMPTS - 1
        assert policy.task_timeout is None
        # a retry waits for nothing, so the policy holds no delay
        names = [field.name for field in dataclasses.fields(RetryPolicy)]
        assert names == ["max_attempts", "task_timeout"]

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_task_timeout_must_be_positive_or_none(self):
        with pytest.raises(InvalidParameterError, match="task_timeout"):
            RetryPolicy(task_timeout=0)

    def test_from_knobs_maps_retries_to_attempts(self):
        assert RetryPolicy.from_knobs(retries=0).max_attempts == 1
        assert RetryPolicy.from_knobs(retries=4).max_attempts == 5
        assert RetryPolicy.from_knobs().max_attempts == DEFAULT_MAX_ATTEMPTS
        assert RetryPolicy.from_knobs(task_timeout=2.5).task_timeout == 2.5

    def test_from_knobs_rejects_negative_retries(self):
        with pytest.raises(InvalidParameterError, match="retries"):
            RetryPolicy.from_knobs(retries=-1)

