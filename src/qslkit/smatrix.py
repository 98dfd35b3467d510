"""The qubit's 2x2 density matrix, validated on construction.

The speed-limit estimators of bounds read a state's excited population and
coherence only: for this model their matrix norms reduce to closed forms in
P and C (see bounds).
"""

from __future__ import annotations

import math

import numpy as np

# Density matrices produced by the analytic model are exact up to rounding,
# so the validity tolerances only need to absorb floating-point noise.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-12


def as_matrix2(m) -> np.ndarray:
    """Coerce to a finite 2x2 complex ndarray, raising ValueError otherwise."""
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix has non-finite entries")
    return arr


class DensityMatrix2:
    """2x2 density matrix of the qubit.

    Basis convention: index 1 is the excited state |e>, index 0 the ground
    state |g>.  Construction validates Hermiticity, unit trace and
    positivity; the stored array is immutable.
    """

    __slots__ = ("_m",)

    def __init__(self, entries):
        m = as_matrix2(entries)
        if not np.allclose(m, m.conj().T, rtol=0.0, atol=HERMITICITY_ATOL):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = m[0, 0].real + m[1, 1].real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
        # Hermitian 2x2 eigenvalues: mean +- radius.
        mean = 0.5 * tr
        radius = math.hypot(0.5 * (m[1, 1].real - m[0, 0].real), abs(m[1, 0]))
        if mean - radius < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {mean - radius} < -1e-12")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """The underlying (read-only) 2x2 complex array."""
        return self._m

    @property
    def excited_population(self) -> float:
        return self._m[1, 1].real

    @property
    def coherence(self) -> complex:
        """The |e><g| matrix element rho_eg."""
        return complex(self._m[1, 0])

    @classmethod
    def excited(cls) -> "DensityMatrix2":
        return cls([[0.0, 0.0], [0.0, 1.0]])

    @classmethod
    def ground(cls) -> "DensityMatrix2":
        return cls([[1.0, 0.0], [0.0, 0.0]])

    @classmethod
    def diagonal(cls, excited_population: float) -> "DensityMatrix2":
        return cls([[1.0 - excited_population, 0.0], [0.0, excited_population]])

    def __repr__(self) -> str:
        return f"DensityMatrix2({self._m.tolist()!r})"
