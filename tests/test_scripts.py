"""Smoke tests for the tooling under ``scripts/`` and the documented API."""

import importlib.util
import re
from pathlib import Path

import mofista

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_trace_invariants_passes():
    assert load_script("verify_trace_invariants").main(["--seeds", "1"]) == 0


def test_readme_public_api_is_all():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ", 1)[1]
    names = set(re.findall(r"`(\w+)`", bullets))
    assert names == set(mofista.__all__)
    assert len(mofista.__all__) == len(names)
