"""Test-wide settings.

Hypothesis draws its examples from a seed derived from each test
function rather than a fresh random one, and keeps no example database,
so an unchanged tree gives the same test outcomes on every run.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
