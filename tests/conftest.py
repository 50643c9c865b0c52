import os
from pathlib import Path

import hypothesis
import pytest

from fdrelay import curves

# Exact-rational arithmetic and batched numpy calls have uneven per-example
# cost; wall-clock deadlines only produce flaky failures here.
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")

# pytest's ``pythonpath`` puts src/ on this process's path; the tests that
# start fresh interpreters (python -m fdrelay, the scripts) get it here.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _fresh_hop_memo():
    """Each test starts with no prepared hops, so none depends on test order."""
    curves._hop.cache_clear()
