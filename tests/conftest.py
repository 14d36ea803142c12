"""Session-wide test settings.

Property tests run under one hypothesis profile: no per-example deadline (a
slow or busy machine must not turn timing into failures), a fixed number of
examples and derandomized draws, so a run is reproducible like the tests
seeded through ``helpers.rng``.
"""

try:
    from hypothesis import settings
except ImportError:     # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("toric_dmod", deadline=None, max_examples=60,
                              derandomize=True, database=None)
    settings.load_profile("toric_dmod")
