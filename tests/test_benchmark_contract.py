"""The benchmark's tracer wraps qslkit functions by name; every name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # Loaded from its file, without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracing):
    assert tracing.WRAPPED
    missing = [
        f"qslkit.{home}.{attr}"
        for home, attr, _ in tracing.WRAPPED.values()
        if not callable(getattr(importlib.import_module(f"qslkit.{home}"), attr, None))
    ]
    assert missing == []
