"""Detuned spontaneous decay of a two-level atom in a Lorentzian reservoir.

Everything is expressed through the excited-state amplitude C(t) of the
single-excitation sector, for which a closed form exists.  Units: hbar = 1,
all rates/frequencies share one unit and time is its inverse.

C(t) has two equal forms: cosh/sinhc, exact through critical coupling d = 0,
and split-exponential, finite at large t.  _closed_form gives the split form to
the nodes where |d t / 2| > 25 and evaluates each form only where selected.
amplitude_series runs it in chunks of quad._CHUNK_POINTS nodes, with the bits
of one unchunked call: from REUSE_POINTS nodes on, env * inner as inner * env.

decay_rate() and lamb_shift() return math.nan at (isolated) zeros of C(t),
where the master-equation coefficients are genuinely singular; callers that
need finite plots should clip (see scan.sweep_decay_rate).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quad
from .smatrix import DensityMatrix2, as_matrix2

# |C| below this is treated as a zero of the amplitude when forming Cdot/C.
AMPLITUDE_SINGULAR_TOL = 1e-12

# Relative rounding error of _closed_form's values, per unit of 1 + t (|mu| + |d| / 2):
# 4,096 ulps, well above the few ulps of each of its operations.
_ROUNDING = 2.0**-40

# The most complex values one numpy array can hold: its size in bytes must fit an intp.
MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def check_grid_size(name: str, n: int, minimum: int = 1) -> None:
    """Reject a grid of n points, input name, below minimum or that no array can hold."""
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"{name}={n} asks for more points than an array can hold")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the detuned Lorentzian reservoir model.

    gamma0: system-reservoir coupling strength.
    lam: spectral width of the Lorentzian.
    delta: detuning of the reservoir center against the atomic frequency.
    omega0: atomic transition frequency; only enters the spectral density
        through its center omega0 - delta, never the amplitude C(t).
    """

    gamma0: float
    lam: float
    delta: float
    omega0: float = 0.0

    def __post_init__(self):
        for name in ("gamma0", "lam", "delta", "omega0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not cmath.isfinite(self.complex_root):
            raise ValueError(
                f"gamma0={self.gamma0}, lam={self.lam} and delta={self.delta} give a complex "
                "root d that is not finite"
            )

    @property
    def weak_coupling(self) -> bool:
        return self.gamma0 < 0.5 * self.lam

    @property
    def complex_root(self) -> complex:
        """Principal root d = sqrt((lam - i*delta)^2 - 2*gamma0*lam).

        The amplitude is an even function of d, so the branch choice is
        immaterial (tested); the principal branch is used throughout.
        """
        z = complex(self.lam, -self.delta)
        return cmath.sqrt(z * z - 2.0 * self.gamma0 * self.lam)


@dataclass(frozen=True)
class Amplitude:
    """Excited-state amplitude C(t) and its derivative at one time."""

    c: complex
    cdot: complex
    t: float


def spectral_density(p: ModelParams, omega):
    """Lorentzian spectral density centered at omega0 - delta, peak gamma0/2."""
    omega = np.asarray(omega, dtype=float)
    x = p.omega0 - p.delta - omega
    out = 0.5 * p.gamma0 * p.lam**2 / (x * x + p.lam**2)
    return out if out.ndim else float(out)


def memory_kernel(p: ModelParams, tau):
    """Reservoir correlation function (gamma0*lam/2) * exp(-(lam - i*delta)*tau)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("memory_kernel requires tau >= 0")
    out = 0.5 * p.gamma0 * p.lam * np.exp(-(p.lam - 1j * p.delta) * tau)
    return out if out.ndim else complex(out)


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z with the removable singularity handled by its series."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    out = np.sinh(zs) / zs
    series = 1.0 + z * z / 6.0
    return np.where(small, series, out)


class _Coefficients(NamedTuple):
    """The t-independent scalars of the closed form, for one cell or a column of cells."""

    neg_mu: complex
    half_d: complex
    mu: complex
    cdot_scale: float  # -gamma0 * lam / 2
    s_plus: complex
    s_minus: complex
    a_plus: complex
    a_minus: complex
    as_plus: complex  # a_plus * s_plus
    as_minus: complex  # a_minus * s_minus


def _coefficients(p: ModelParams) -> _Coefficients:
    """One cell's scalars, in Python complex arithmetic."""
    mu = 0.5 * (p.lam - 1j * p.delta)
    d = p.complex_root
    s_plus = 0.5 * d - mu
    s_minus = -0.5 * d - mu
    # 1/d only where d != 0: at critical coupling |d t / 2| = 0 never selects the split form.
    a_plus = 0.5 * (1.0 + 2.0 * mu / d) if d else 0j
    a_minus = 0.5 * (1.0 - 2.0 * mu / d) if d else 0j
    return _Coefficients(
        -mu, 0.5 * d, mu, -0.5 * p.gamma0 * p.lam, s_plus, s_minus, a_plus, a_minus,
        a_plus * s_plus, a_minus * s_minus,
    )


def coefficient_table(params: list[ModelParams]) -> _Coefficients:
    """Every cell's scalars as arrays, one entry per ModelParams in params."""
    cells = [_coefficients(p) for p in params]
    columns = (np.array([c[k] for c in cells]) for k in range(len(_Coefficients._fields)))
    return _Coefficients(*columns)


# numpy reuses temporaries of this many complex elements (256 KiB) or more, and
# may then swap the operands of a complex multiply, which changes last bits.
REUSE_POINTS = 16384

# The columns that each form of the closed form reads besides half_d.
_MID = ("neg_mu", "mu", "cdot_scale")
_SPLIT = ("s_plus", "s_minus", "a_plus", "a_minus", "as_plus", "as_minus")


def _mid_form(k: _Coefficients, t, x, swap: bool):
    """C and Cdot in the cosh/sinhc form at x = d t / 2, with env * inner as inner * env if swap.

    Exact through d = 0, but its factors overflow separately once Re(d) t / 2 grows large.
    """
    env = np.exp(k.neg_mu * t)
    shc = _sinhc(x)
    inner = np.cosh(x) + k.mu * t * shc
    return inner * env if swap else env * inner, k.cdot_scale * t * shc * env


def _split_form(k: _Coefficients, t):
    """C and Cdot in the split-exponential form, finite at large t (both rates decay)."""
    e_plus = np.exp(k.s_plus * t)
    e_minus = np.exp(k.s_minus * t)
    return k.a_plus * e_plus + k.a_minus * e_minus, k.as_plus * e_plus + k.as_minus * e_minus


def _closed_form(k: _Coefficients, t, rows=None, swap=False) -> tuple[np.ndarray, np.ndarray]:
    """C(t) and Cdot(t) from coefficients k, broadcast against the times t.

    k holds one cell's scalars (formed in Python, so only t-dependent
    operations run as arrays) or, given rows, the table whose row rows[i]
    belongs to t[i].  A node takes the split form where |d t / 2| > 25, the
    cosh/sinhc form elsewhere; swap computes its env * inner as inner * env.
    Each form runs only on the entries of t's leading axis (nodes of a 1-D t,
    rows of a 2-D one) that hold a node selecting it; a row holding both
    selects per node.  In an array call a node's bits do not depend on the
    call that holds it.  A 0-d call returns numpy scalars, or 0-d arrays if
    it is split.
    """
    def at(names, lead=slice(None)):
        """k with its columns names gathered at the rows of t[lead]."""
        r = None if rows is None else rows[lead]
        return k if r is None else k._replace(**{n: getattr(k, n)[r, None] for n in names})

    with np.errstate(over="ignore", invalid="ignore"):
        x = at(("half_d",)).half_d * t
        big = np.abs(x) > 25.0
        if not np.any(big):
            return _mid_form(at(_MID), t, x, swap)
        if np.all(big):
            c, cdot = _split_form(at(_SPLIT), t)
            return (c, cdot) if big.ndim else (np.asarray(c), np.asarray(cdot))
        axes = tuple(range(1, big.ndim))
        lead_mid, lead_big = ~big.all(axis=axes), big.any(axis=axes)
        mid = _mid_form(at(_MID, lead_mid), t[lead_mid], x[lead_mid], swap)
        c, cdot = np.empty(big.shape, complex), np.empty(big.shape, complex)
        c[lead_mid], cdot[lead_mid] = mid
        sel = big[lead_big] if big.ndim > 1 else ...
        c_big, cdot_big = _split_form(at(_SPLIT, lead_big), t[lead_big])
        c[big], cdot[big] = c_big[sel], cdot_big[sel]
    return c, cdot


def amplitude_series(p: ModelParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form C(t) and Cdot(t) on an array of times t >= 0.

    The nodes are evaluated in chunks of at most quad._CHUNK_POINTS, each
    with the operand order of one call over all of t, so the bits do not
    depend on the chunk size.  A 0-d t is one call.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("amplitude requires t >= 0")
    k = _coefficients(p)
    if not t.ndim:
        return _closed_form(k, t)
    swap = t.size >= REUSE_POINTS
    flat, step = t.ravel(), quad._CHUNK_POINTS
    c, cdot = np.empty(t.size, complex), np.empty(t.size, complex)
    for i in range(0, t.size, step):
        c[i:i + step], cdot[i:i + step] = _closed_form(k, flat[i:i + step], swap=swap)
    return c.reshape(t.shape), cdot.reshape(t.shape)


def amplitude_cells(table: _Coefficients, rows: np.ndarray, t: np.ndarray):
    """C and Cdot of the cells table[rows] at times t of shape (len(rows), n).

    Row i of t belongs to cell rows[i]; its scalars are broadcast along the row.
    One call, in the operand order of calls of fewer than REUSE_POINTS nodes.
    """
    return _closed_form(table, t, rows)


def amplitude_bounds(table: _Coefficients, rows: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """Bounds over the intervals [t0[i], t1[i]] of the cells table[rows[i]].

    Returns an array (5, len(rows)): bounds on |C|, |Cdot| and |Cddot| there,
    and on the absolute errors of the C and Cdot that _closed_form computes
    there.  C is the cosh/sinhc form with the table's mu and d taken as exact,
    Cdot that form's cdot_scale t sinhc(d t / 2) e^(-mu t) and Cddot its
    derivative.  Away from d = 0 each is a sum of e^(s+ t) and e^(s- t) terms,
    with coefficients a±, ±cdot_scale / d and ±s± cdot_scale / d, and |e^(s t)|
    is largest at an end of the interval.  Relative to those sums of moduli,
    errors grow as rel = _ROUNDING (1 + t1 (|mu| + |d| / 2)): the phases s t
    carry errors that grow with t, and the split form's products a± s± lose up
    to eps (|mu| + |d| / 2)(|a+| + |a-|) to cancellation.  The bounds cover
    both forms of _closed_form.  At d = 0 the split form does not exist, and
    every bound is inf; so is a bound whose product of an overflowed and an
    underflowed factor would read NaN.
    """
    k = _Coefficients(*(col[rows] for col in table))
    rate = np.abs(k.mu) + np.abs(k.half_d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rel = _ROUNDING * (1.0 + t1 * rate)
        # The larger exponent gives the sup; + rel covers the rounding of s±.
        e_plus = np.exp(np.maximum(k.s_plus.real * t0, k.s_plus.real * t1) + rel)
        e_minus = np.exp(np.maximum(k.s_minus.real * t0, k.s_minus.real * t1) + rel)
        e_sum = e_plus + e_minus
        a_sum = np.abs(k.a_plus) + np.abs(k.a_minus)
        # |a± s±| = |cdot_scale / d|, but the split form computes a± s± with an
        # error up to about rate * a_sum * eps.
        q = np.abs(k.cdot_scale) / (2.0 * np.abs(k.half_d))
        err_c = rel * a_sum * e_sum
        err_cdot = rel * (q + rate * a_sum) * e_sum
        out = np.stack((
            np.abs(k.a_plus) * e_plus + np.abs(k.a_minus) * e_minus + err_c,
            q * e_sum + err_cdot,
            q * (np.abs(k.s_plus) * e_plus + np.abs(k.s_minus) * e_minus + rel * rate * e_sum),
            err_c,
            err_cdot,
        ))
    return np.where((k.half_d == 0) | np.isnan(out), np.inf, out)


def amplitude(p: ModelParams, t: float) -> Amplitude:
    """Closed-form amplitude C(t) with its analytic derivative."""
    c, cdot = amplitude_series(p, float(t))
    return Amplitude(c=complex(c), cdot=complex(cdot), t=float(t))


def _amplitude_cddot(p: ModelParams, t) -> np.ndarray:
    """Second derivative of C(t); used by the ODE-residual checks."""
    t = np.asarray(t, dtype=float)
    mu = 0.5 * (p.lam - 1j * p.delta)
    d = p.complex_root
    x = 0.5 * d * t
    env = np.exp(-mu * t)
    return -p.gamma0 * p.lam * env * (0.5 * np.cosh(x) - mu * 0.5 * t * _sinhc(x))


def oracle_amplitude(p: ModelParams, t_max: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent numerical solution of the memory-kernel equation for C(t).

    Integrates Cdot(t) = -B(t) with the memory accumulator
    B(t) = int_0^t f(t - s) C(s) ds, advanced through its local form
    Bdot = f(0) C - (lam - i*delta) B (the kernel is a single exponential),
    with classic 4th-order Runge-Kutta stepping.  Never touches the closed
    form, so it serves as an oracle for amplitude().

    Returns (times, C) on the uniform grid 0, step, ..., ~t_max.
    """
    if not step > 0.0:  # NaN fails too
        raise ValueError("step must be positive")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < step:
        raise ValueError("t_max must be at least one step")
    if p.lam * step > 0.1:
        raise ValueError(
            f"step {step} too coarse for lam={p.lam}; choose step <= {0.1 / p.lam:.3g} "
            "(lam * step <= 0.1) so the kernel is resolved"
        )
    n = t_max / step
    if not n < MAX_GRID_POINTS:  # inf fails too
        raise ValueError(
            f"t_max={t_max} and step={step} ask for {n:.6g} steps, more than an array can hold"
        )
    n = int(round(n))
    f0 = 0.5 * p.gamma0 * p.lam
    decay = p.lam - 1j * p.delta
    h = step

    def deriv(c, b):
        return -b, f0 * c - decay * b

    c = 1.0 + 0.0j
    b = 0.0 + 0.0j
    out = np.empty(n + 1, dtype=complex)
    out[0] = c
    for k in range(n):
        k1c, k1b = deriv(c, b)
        k2c, k2b = deriv(c + 0.5 * h * k1c, b + 0.5 * h * k1b)
        k3c, k3b = deriv(c + 0.5 * h * k2c, b + 0.5 * h * k2b)
        k4c, k4b = deriv(c + h * k3c, b + h * k3b)
        c = c + (h / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        out[k + 1] = c
    times = np.arange(n + 1) * h
    return times, out


def excited_population(p: ModelParams, t):
    """P(t) = |C(t)|^2 for decay from the excited state."""
    c, _ = amplitude_series(p, t)
    out = np.abs(c) ** 2
    return out if out.ndim else float(out)


def population_rate(p: ModelParams, t):
    """dP/dt = 2 Re(conj(C) Cdot); positive means energy flows back to the atom."""
    c, cdot = amplitude_series(p, t)
    out = 2.0 * (np.conj(c) * cdot).real
    return out if out.ndim else float(out)


def _log_derivative(p: ModelParams, t):
    """(Cdot/C, mask of zeros of C), dividing by 1 instead of C inside the mask."""
    c, cdot = amplitude_series(p, t)
    singular = np.abs(c) < AMPLITUDE_SINGULAR_TOL
    return cdot / np.where(singular, 1.0, c), singular


def decay_rate(p: ModelParams, t):
    """Time-dependent decay rate -2 Re(Cdot/C); nan marks zeros of C."""
    ratio, singular = _log_derivative(p, t)
    out = np.where(singular, math.nan, -2.0 * ratio.real)
    return out if out.ndim else float(out)


def lamb_shift(p: ModelParams, t):
    """Lamb-shift coefficient -2 Im(Cdot/C); nan marks zeros of C."""
    ratio, singular = _log_derivative(p, t)
    out = np.where(singular, math.nan, -2.0 * ratio.imag)
    return out if out.ndim else float(out)


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


def markov_limit(p: ModelParams) -> float:
    """Long-time Markovian decay rate gamma0 * lam^2 / (lam^2 + delta^2)."""
    return p.gamma0 * p.lam**2 / (p.lam**2 + p.delta**2)


def evolve(p: ModelParams, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Reduced state at time t for initial state rho0.

    rho_ee(t) = rho_ee(0) |C|^2, rho_eg(t) = rho_eg(0) C(t), and the ground
    population is fixed by unit trace.
    """
    if not isinstance(rho0, DensityMatrix2):
        raise ValueError("evolve expects a DensityMatrix2 initial state")
    a = amplitude(p, t)
    pop = rho0.excited_population * abs(a.c) ** 2
    coh = rho0.coherence * a.c
    return DensityMatrix2([[1.0 - pop, np.conj(coh)], [coh, pop]])


def liouvillian(p: ModelParams, rho0: DensityMatrix2, t: float) -> np.ndarray:
    """Analytic rhod(t), obtained by differentiating the evolved state entrywise.

    Finite everywhere (composed directly from Cdot), traceless and Hermitian.
    """
    if not isinstance(rho0, DensityMatrix2):
        raise ValueError("liouvillian expects a DensityMatrix2 initial state")
    a = amplitude(p, t)
    pdot = rho0.excited_population * 2.0 * (np.conj(a.c) * a.cdot).real
    cohdot = rho0.coherence * a.cdot
    return as_matrix2([[-pdot, np.conj(cohdot)], [cohdot, pdot]])
