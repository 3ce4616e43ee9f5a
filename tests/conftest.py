import hypothesis
import pytest

from verify_trace_invariants import runs

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def verify_runs():
    """Every run of ``scripts/verify_trace_invariants.py``, made once per session."""
    return list(runs())
