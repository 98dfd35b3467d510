"""Reference implementations that the tests compare qslkit against.

qslkit computes the speed-limit integrals in a reduced form: one closed form
for C(t) and its derivative, and P = |C|^2 with its rate.  The functions here
take the long way round, so that tests can check that reduction:

- amplitude_cddot and on_resonance_decay_rate: the second derivative of C(t),
  for the memory-kernel equation's residual, and a closed form of the decay
  rate at delta = 0;
- evolve and liouvillian: the reduced state rho(t) and its derivative as 2x2
  matrices, built from amplitude_series;
- singular_values, schatten_norm and trace_distance_measure: 2x2 matrix norms
  from the closed-form eigenvalues of M^dag M (quadratic formula), deterministic
  to the last bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from qslkit.model import ModelParams, _sinhc, amplitude_series
from qslkit.smatrix import DensityMatrix2, as_matrix2


def amplitude_cddot(p: ModelParams, t) -> np.ndarray:
    """Second derivative of C(t)."""
    t = np.asarray(t, dtype=float)
    mu = 0.5 * (p.lam - 1j * p.delta)
    d = p.complex_root
    x = 0.5 * d * t
    env = np.exp(-mu * t)
    return -p.gamma0 * p.lam * env * (0.5 * np.cosh(x) - mu * 0.5 * t * _sinhc(x))


def on_resonance_decay_rate(p: ModelParams, t):
    """Closed form of the decay rate at delta = 0.

    2*gamma0*lam*sinh(d0 t/2) / (d0 cosh(d0 t/2) + lam sinh(d0 t/2)) with
    d0 = sqrt(lam^2 - 2 gamma0 lam); real for all couplings.
    """
    if p.delta != 0.0:
        raise ValueError("on_resonance_decay_rate requires delta = 0")
    t = np.asarray(t, dtype=float)
    d0 = cmath.sqrt(complex(p.lam * p.lam - 2.0 * p.gamma0 * p.lam))
    x = 0.5 * d0 * t
    # Dividing through by d0 removes the critical-coupling singularity d0 = 0.
    shc = 0.5 * t * _sinhc(x)
    out = (2.0 * p.gamma0 * p.lam * shc / (np.cosh(x) + p.lam * shc)).real
    return out if out.ndim else float(out)


def evolve(p: ModelParams, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Reduced state at time t for initial state rho0.

    rho_ee(t) = rho_ee(0) |C|^2, rho_eg(t) = rho_eg(0) C(t), and the ground
    population is fixed by unit trace.
    """
    c = complex(amplitude_series(p, float(t))[0])
    pop = rho0.excited_population * abs(c) ** 2
    coh = rho0.coherence * c
    return DensityMatrix2([[1.0 - pop, np.conj(coh)], [coh, pop]])


def liouvillian(p: ModelParams, rho0: DensityMatrix2, t: float) -> np.ndarray:
    """Analytic rhod(t), obtained by differentiating the evolved state entrywise.

    Finite everywhere (composed directly from Cdot), traceless and Hermitian.
    """
    c, cdot = (complex(v) for v in amplitude_series(p, float(t)))
    pdot = rho0.excited_population * 2.0 * (np.conj(c) * cdot).real
    cohdot = rho0.coherence * cdot
    return as_matrix2([[-pdot, np.conj(cohdot)], [cohdot, pdot]])


def singular_values(m) -> tuple[float, float]:
    """Singular values of a 2x2 complex matrix, in descending order.

    Uses the closed-form eigenvalues of M^dag M: with t = tr(M^dag M) and
    p = |det M|^2, the eigenvalues are (t +- sqrt(t^2 - 4p)) / 2.  The
    smaller one is recovered as p / e_max for numerical stability.
    """
    a = as_matrix2(m)
    g00 = abs(a[0, 0]) ** 2 + abs(a[1, 0]) ** 2
    g11 = abs(a[0, 1]) ** 2 + abs(a[1, 1]) ** 2
    t = g00 + g11
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    p = abs(det) ** 2
    disc = max(t * t - 4.0 * p, 0.0)
    e_max = 0.5 * (t + math.sqrt(disc))
    e_min = p / e_max if e_max > 0.0 else 0.0
    return math.sqrt(e_max), math.sqrt(e_min)


def schatten_norm(m, p) -> float:
    """Schatten p-norm of a 2x2 complex matrix, p in {1, 2, inf}."""
    s1, s2 = singular_values(m)
    if p == 1:
        return s1 + s2
    if p == 2:
        return math.hypot(s1, s2)
    if p == math.inf:
        return s1
    raise ValueError(f"unsupported Schatten order p={p!r}; use 1, 2 or math.inf")


def trace_distance_measure(a: DensityMatrix2, b: DensityMatrix2) -> float:
    """Similarity measure 1 - (1/4) * ||a - b||_1^2.

    Equals 1 iff a == b and 0 for orthogonal pure states (trace norm 2).
    """
    if not isinstance(a, DensityMatrix2) or not isinstance(b, DensityMatrix2):
        raise ValueError("trace_distance_measure expects DensityMatrix2 inputs")
    tn = schatten_norm(a.matrix - b.matrix, 1)
    return 1.0 - 0.25 * tn * tn
