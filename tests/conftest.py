"""Session-wide test settings.

Every test runs under one CPU-time bound, TEST_CPU_BOUND_S, through
``helpers.cpu_time_limit``: a test that hangs fails with the bound's
message, naming the test, instead of stopping the suite. The slowest test
takes under 3 s, so the bound is far from any test that works.

Property tests run under one hypothesis profile: no per-example deadline (a
slow or busy machine must not turn timing into failures), a fixed number of
examples and derandomized draws, so a run is reproducible like the tests
seeded through ``helpers.rng``.
"""

import pytest

from helpers import cpu_time_limit

TEST_CPU_BOUND_S = 60

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("toric_dmod", deadline=None, max_examples=60,
                              derandomize=True, database=None)
    settings.load_profile("toric_dmod")


@pytest.fixture(autouse=True)
def cpu_bound(request):
    with cpu_time_limit(TEST_CPU_BOUND_S, request.node.nodeid):
        yield
