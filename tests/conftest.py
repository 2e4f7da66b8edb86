"""Shared test settings: every Hypothesis property draws the same examples
on every run, so tier-1 is deterministic. Each property keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
