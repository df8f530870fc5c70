"""RetryPolicy: bounded attempts, deterministic backoff, deadlines."""

import pytest

from repro.types import InvalidParameterError
from repro.util.retry import (
    DEFAULT_MAX_ATTEMPTS,
    RetryPolicy,
    seeded_jitter,
)


class TestConstruction:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == DEFAULT_MAX_ATTEMPTS
        assert policy.retries == DEFAULT_MAX_ATTEMPTS - 1
        assert policy.task_timeout is None

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="max_attempts"):
            RetryPolicy(max_attempts=0)

    def test_delays_must_be_nonnegative(self):
        with pytest.raises(InvalidParameterError, match="delays"):
            RetryPolicy(base_delay=-0.1)

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


class TestBackoff:
    def test_deterministic_across_calls(self):
        policy = RetryPolicy()
        first = [policy.backoff(a, key="t1") for a in range(1, 5)]
        second = [policy.backoff(a, key="t1") for a in range(1, 5)]
        assert first == second

    def test_keys_decorrelate(self):
        policy = RetryPolicy()
        assert policy.backoff(1, "a") != policy.backoff(1, "b")

    def test_exponential_envelope_capped(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4)
        for attempt in range(1, 10):
            delay = policy.backoff(attempt, "k")
            nominal = min(0.4, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * nominal <= delay < nominal

    def test_attempt_zero_and_zero_base_are_free(self):
        assert RetryPolicy().backoff(0) == 0.0
        assert RetryPolicy(base_delay=0.0).backoff(3) == 0.0

    def test_jitter_range_and_determinism(self):
        values = {seeded_jitter(f"k{i}", 1) for i in range(64)}
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(values) == 64  # sha256: no accidental collisions here
        assert seeded_jitter("k", 2) == seeded_jitter("k", 2)
