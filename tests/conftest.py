"""Suite-wide hypothesis settings: the property tests draw the same examples
on every run, with no wall-clock deadline and no example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
