"""Hypothesis profiles.  CI selects ``ci`` with HYPOTHESIS_PROFILE=ci, so
that every run draws the same examples and a slow runner cannot fail a
test on time; local runs keep the default random search."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
