"""Test-suite settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
