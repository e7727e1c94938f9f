"""Settings every test module shares.

Hypothesis runs derandomized, with no deadline and no example database,
so each property test draws the same examples on every run; each test
sets only its own ``max_examples``.  The oracles and the pinned cases
assert like test modules do.
"""

import pytest
from hypothesis import settings

pytest.register_assert_rewrite("oracles", "pinned")

settings.register_profile("detvar", deadline=None, derandomize=True, database=None)
settings.load_profile("detvar")
