"""Shared test settings.

Property tests run derandomized: every run draws the same examples, so
a failing example reproduces on the next run instead of depending on
the random seed.  Each test's own settings (max_examples, deadline)
still apply on top of this profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
