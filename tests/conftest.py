import sys
from pathlib import Path

import pytest

from dacq import env

# make sibling test helpers (reference oracles, golden fixtures) importable
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def fresh_pool():
    """No worker pool when the test starts or after it ends: workers see
    this process as it was when their pool was forked, so a patch a test
    makes reaches them only through a pool forked after it, and a pool
    forked under a patch must not serve later tests."""
    env.close_pool()
    yield
    env.close_pool()
