"""Test-suite settings: property tests run a fixed, derandomized set of
examples with no per-example deadline, so every run checks the same cases."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")
