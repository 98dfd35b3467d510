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
    """The shape of t of every closed-form call made while the test runs.

    Every evaluation of C(t) goes through model.amplitude_cells, looked up on the
    model module: amplitude_series' chunks and the batched calls of bounds alike.
    """
    calls = []
    real = model_mod.amplitude_cells

    def counted(table, rows, t):
        calls.append(np.shape(t))
        return real(table, rows, t)

    monkeypatch.setattr(model_mod, "amplitude_cells", counted)
    return calls
