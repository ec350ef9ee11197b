"""Shared test configuration.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples.  Its remaining cache (the constants it reads
from local modules) goes to a temporary directory removed at exit, so a
run leaves no ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
