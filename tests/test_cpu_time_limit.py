"""helpers.cpu_time_limit nests: ITIMER_PROF is one timer per process, and
every test already runs inside conftest's bound, so an inner limit must
leave the outer one armed with what the block did not use."""

import signal
import time

import pytest

from helpers import cpu_time_limit


def _spin(seconds: float):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_outer_limit_fires_after_a_nested_one_ends():
    with pytest.raises(TimeoutError, match="outer"):
        with cpu_time_limit(0.5, "outer"):
            with cpu_time_limit(5, "inner"):
                _spin(0.1)
            _spin(5)


def test_outer_limit_fires_inside_a_longer_nested_one():
    with pytest.raises(TimeoutError, match="outer"):
        with cpu_time_limit(0.3, "outer"):
            with cpu_time_limit(5, "inner"):
                _spin(5)


def test_inner_limit_fires_first_and_the_outer_runs_on():
    with cpu_time_limit(5, "outer"):
        with pytest.raises(TimeoutError, match="inner"):
            with cpu_time_limit(0.2, "inner"):
                _spin(5)
        left = signal.getitimer(signal.ITIMER_PROF)[0]
        assert 4 < left < 4.9
