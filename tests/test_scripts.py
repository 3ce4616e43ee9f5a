"""Smoke tests for the tooling under ``scripts/``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_trace_invariants_passes():
    assert load_script("verify_trace_invariants").main(["--seeds", "1"]) == 0
