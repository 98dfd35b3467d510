"""Shared test set-up.

Subprocess runs of `python -m qslkit.cli` import the package from this
checkout, and the closed_form_calls fixture counts closed-form evaluations.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import qslkit.model as model_mod

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The node count of every closed-form call made while the test runs.

    Every evaluation of C(t), scalar or batched, goes through model._closed_form.
    """
    calls = []
    real = model_mod._closed_form

    def counted(k, t, rows=None, swap=False):
        calls.append(np.size(t))
        return real(k, t, rows, swap)

    monkeypatch.setattr(model_mod, "_closed_form", counted)
    return calls
