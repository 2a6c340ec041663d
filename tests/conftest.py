"""Hypothesis profiles.  Neither times a test out: a slow or shared
runner cannot fail a property on time.  CI selects ``ci`` with
HYPOTHESIS_PROFILE=ci, so that every run draws the same examples; a run
without it loads ``local``, which keeps the default random search."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("local", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))
