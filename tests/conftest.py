"""Test-suite settings: every hypothesis test draws the same examples on
every run and keeps no example database, so tier-1 is deterministic."""

from hypothesis import settings

settings.register_profile("modalmr", derandomize=True, database=None, deadline=None)
settings.load_profile("modalmr")
