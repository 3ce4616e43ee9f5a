import importlib.util
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile("suite", deadline=None, max_examples=50)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def verify_runs():
    """Every run of ``scripts/verify_trace_invariants.py``, made once per session."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_trace_invariants.py"
    spec = importlib.util.spec_from_file_location("verify_trace_invariants", path)
    verify = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify)
    return list(verify.runs())
