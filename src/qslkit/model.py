"""Detuned spontaneous decay of a two-level atom in a Lorentzian reservoir.

Everything is expressed through the excited-state amplitude C(t) of the
single-excitation sector, for which a closed form exists.  Units: hbar = 1,
all rates/frequencies share one unit and time is its inverse.

C(t) has two equal forms: cosh/sinhc, exact through critical coupling d = 0,
and split-exponential, finite at large t.  amplitude_cells, the one function
that evaluates them, gives the split form to the nodes where |d t / 2| > 25,
on rows of times of the cells of a coefficient table.  amplitude_series runs
it on one-row chunks of quad._CHUNK_POINTS nodes, with the bits of one
unchunked call; every call is 2-D, so a scalar t has the bits of the same
node in an array call.

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

# |C| below this is treated as a zero of the amplitude when forming Cdot/C.
AMPLITUDE_SINGULAR_TOL = 1e-12

# Relative rounding error of amplitude_cells' values, per unit of 1 + t (|mu| + |d| / 2):
# 32 u (u = 2^-53), above the 29.3 u that its operations add up to (see amplitude_bounds).
_ROUNDING = 2.0**-48

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
    def complex_root(self) -> complex:
        """Principal root d = sqrt((lam - i*delta)^2 - 2*gamma0*lam).

        The amplitude is an even function of d, so the branch choice is
        immaterial (tested); the principal branch is used throughout.
        """
        z = complex(self.lam, -self.delta)
        return cmath.sqrt(z * z - 2.0 * self.gamma0 * self.lam)


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
    if not small.any():
        return np.sinh(z) / z
    zs = np.where(small, 1.0, z)
    out = np.sinh(zs) / zs
    series = 1.0 + z * z / 6.0
    return np.where(small, series, out)


class _Coefficients(NamedTuple):
    """The t-independent scalars of the closed form, for one cell."""

    half_d: complex
    neg_mu: complex
    mu: complex
    cdot_scale: float  # -gamma0 * lam / 2
    s_plus: complex
    s_minus: complex
    a_plus: complex
    a_minus: complex
    as_plus: complex  # a_plus * s_plus
    as_minus: complex  # a_minus * s_minus


# The fields that each form of the closed form reads besides half_d, as slices of
# _Coefficients and rows of a coefficient table.
_MID, _SPLIT = slice(1, 4), slice(4, 10)


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
        0.5 * d, -mu, mu, -0.5 * p.gamma0 * p.lam, s_plus, s_minus, a_plus, a_minus,
        a_plus * s_plus, a_minus * s_minus,
    )


def coefficient_table(params: list[ModelParams]) -> np.ndarray:
    """Every cell's scalars: a complex array (10, len(params)), row k holding field k of
    _Coefficients per ModelParams in params (cdot_scale's row is real), so that one index
    gathers every field a form reads."""
    return np.array([_coefficients(p) for p in params], dtype=complex).reshape(-1, 10).T.copy()


def _mid_form(k, t, x):
    """C and Cdot in the cosh/sinhc form at x = d t / 2, k holding neg_mu, mu and cdot_scale.

    Exact through d = 0, but its factors overflow separately once Re(d) t / 2 grows large.
    """
    neg_mu, mu, cdot_scale = k
    env = np.exp(neg_mu * t)
    shc = _sinhc(x)
    inner = np.cosh(x) + mu * t * shc
    return env * inner, cdot_scale.real * t * shc * env


def _split_form(k, t):
    """C and Cdot in the split-exponential form, finite at large t (both rates decay).

    k holds s_plus, s_minus, a_plus, a_minus, as_plus and as_minus.
    """
    s_plus, s_minus, a_plus, a_minus, as_plus, as_minus = k
    e_plus = np.exp(s_plus * t)
    e_minus = np.exp(s_minus * t)
    return a_plus * e_plus + a_minus * e_minus, as_plus * e_plus + as_minus * e_minus


def amplitude_cells(table: np.ndarray, rows: np.ndarray, t: np.ndarray):
    """C and Cdot of the cells rows of a coefficient table at times t of shape (len(rows), n).

    Row i of t belongs to cell rows[i]; the fields a form reads are gathered
    once, in one index, and broadcast along the row.  A node takes the split
    form where |d t / 2| > 25, the cosh/sinhc form elsewhere.  Each form runs
    only on the rows holding a node that selects it; a row holding both
    selects per node.  A node's bits depend neither on the size of the call
    that holds it nor on its other nodes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = table[0, rows, None] * t  # half_d
        big = np.abs(x) > 25.0
        if not np.any(big):
            return _mid_form(table[_MID, rows, None], t, x)
        if np.all(big):
            return _split_form(table[_SPLIT, rows, None], t)
        lead_mid, lead_big = ~big.all(axis=1), big.any(axis=1)
        mid = _mid_form(table[_MID, rows[lead_mid], None], t[lead_mid], x[lead_mid])
        c, cdot = np.empty(big.shape, complex), np.empty(big.shape, complex)
        c[lead_mid], cdot[lead_mid] = mid
        c_big, cdot_big = _split_form(table[_SPLIT, rows[lead_big], None], t[lead_big])
        c[big], cdot[big] = c_big[big[lead_big]], cdot_big[big[lead_big]]
    return c, cdot


def amplitude_series(p: ModelParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form C(t) and Cdot(t) on an array of times t >= 0.

    The nodes are evaluated in chunks of at most quad._CHUNK_POINTS, each one
    row of amplitude_cells on p's one-cell table, with the bits of one call
    over all of t.  A scalar t gives numpy scalars.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):  # NaN fails too
        raise ValueError("amplitude requires t >= 0 and not NaN")
    table, row = coefficient_table([p]), np.zeros(1, int)
    flat, step = t.ravel(), quad._CHUNK_POINTS
    c, cdot = np.empty(t.size, complex), np.empty(t.size, complex)
    for i in range(0, t.size, step):
        c[i:i + step], cdot[i:i + step] = amplitude_cells(table, row, flat[None, i:i + step])
    return c.reshape(t.shape)[()], cdot.reshape(t.shape)[()]


def bound_rates(table: np.ndarray) -> np.ndarray:
    """The per-cell moduli and rates of a coefficient table that amplitude_bounds reads: an
    array (11, cells), formed once per table.

    Rows: rate = |mu| + |d| / 2, Re s±, |a±|, a_sum = |a+| + |a-|, q, the rates that P's
    derivatives bring down, and d = 0.  |a± s±| = q = |cdot_scale / d|, but the split form
    computes a± s± with an error up to about rate * a_sum * eps.
    """
    k = _Coefficients(*table)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a_plus, a_minus = np.abs(k.a_plus), np.abs(k.a_minus)
        return np.stack((
            np.abs(k.mu) + np.abs(k.half_d), k.s_plus.real, k.s_minus.real,
            a_plus, a_minus, a_plus + a_minus, np.abs(k.cdot_scale.real / (2.0 * k.half_d)),
            np.abs(2.0 * k.s_plus.real), np.abs(2.0 * k.s_minus.real),
            np.abs(k.s_plus + np.conj(k.s_minus)), k.half_d == 0))


def amplitude_bounds(rates: np.ndarray, rows: np.ndarray, t0: np.ndarray, t1: np.ndarray):
    """Bounds over the intervals [t0[i], t1[i]] of the cells rows[i] of a coefficient table
    whose bound_rates are rates.

    Returns an array (6, len(rows)): bounds on |C|, |Cdot|, |Pddot| and |P'''|
    there, and on the absolute errors of the C and Cdot that amplitude_cells
    computes there.  C is the cosh/sinhc form with the table's mu and d taken
    as exact, Cdot that form's cdot_scale t sinhc(d t / 2) e^(-mu t), P = |C|^2,
    and Pddot and P''' the first and second derivatives of Pdot =
    2 Re(conj(C) Cdot).  Away from d = 0, C
    and Cdot are sums of e^(s+ t) and e^(s- t) terms, with coefficients a± and
    ±cdot_scale / d, and P is the two-mode form
    |a+|^2 e^(2 Re s+ t) + |a-|^2 e^(2 Re s- t) + 2 Re(a+ conj(a-) e^((s+ + conj s-) t)),
    whose k-th derivative multiplies its terms by (2 Re s±)^k and
    (s+ + conj s-)^k: unlike C's, its slopes do not see C's phase rotation.
    Every |e^(s t)| is largest at an end of the interval.  Relative to those
    sums of moduli, errors grow as rel = _ROUNDING (1 + t1 (|mu| + |d| / 2)):
    the phases s t carry errors that grow with t, and the split form's
    products a± s± lose up to eps (|mu| + |d| / 2)(|a+| + |a-|) to
    cancellation.  The P bounds add rel (|a+| + |a-|) to each |a±| and
    2 rel (|mu| + |d| / 2) to each rate, for the table's rounding of a± and
    s±, which also makes Cdot differ from C's derivative by up to
    eps (|mu| + |d| / 2)(|a+| + |a-|).  The bounds cover both forms of amplitude_cells.
    At d = 0 the split form does not exist, and every bound is inf; so is a
    bound whose product of an overflowed and an underflowed factor would
    read NaN.

    _ROUNDING, derived.  At a node t let u = 2^-53, rate = |mu| + |d| / 2,
    x = d t / 2, A = |a+| + |a-| and E = e^(Re s+ t) + e^(Re s- t), which is
    2 |e^(-mu t)| cosh(Re x).  A >= 1 and A >= |2 mu / d|, as a+ + a- = 1 and
    a+ - a- = 2 mu / d; |cosh x| and |sinh x| are at most cosh(Re x); and
    mu t sinhc x = (2 mu / d) sinh x, cdot_scale t sinhc x = (2 cdot_scale / d) sinh x.
    So every term of C in either form is at most A E in modulus (e^(-mu t) cosh x
    at most E / 2, e^(-mu t) mu t sinhc x at most A E / 2, the a± e^(s± t) A E
    together), and every term of Cdot at most q E (|a± s±| = q).  Each error
    below is a multiple of u times the modulus of the value it rounds:
      - the argument s t of an exponential rounds by u |s t|, and the table's
        s± = ±d / 2 - mu carry u rate: e^(s± t) and e^(-mu t) move by at most
        2 u rate t relative; x's rounding by u |x| moves e^(-mu t) cosh x by
        u |x| E / 2, e^(-mu t) mu t sinhc x by u |x| A E and Cdot by 2 u |x| q E,
        with |x| <= rate t; the factor e^|error| is in the e^rel of e±;
      - cexp, ccosh and csinh: glibc forms each part as a product of a real exp,
        cosh or sinh and a cos or sin, so each is taken as within 4 ulps per
        part, 8 u of the modulus (at most 2.5 ulps was seen over 20,000
        arguments of each on x86-64);
      - a complex product sqrt(5), a complex sum 1, a product by a real 1, and
        a complex division (Smith's, in numpy and in Python) 2 sqrt(2) + 6;
      - the table's a± = (1 ± 2 mu / d) / 2, a division and a sum: 5.5 A.
    Summed, the parts that do not grow with t are at most 25.4 for C's
    cosh/sinhc form (e^(-mu t) 8, cosh 4, sinhc (8 + 9) / 2, mu t 0.5, its
    product 1.1, the sum 1, the last product 2.3), 29.3 for its Cdot (two real
    products 2, sinhc 17, e^(-mu t) 8, the last product 2.3), 16.8 for the split
    form's C (a± 5.5, cexp 8, products 2.3, the sum 1) and 11.3 for its Cdot
    (cexp 8, products 2.3, the sum 1; its a± s± 8.8 rate A, a± 5.5, s± 1 and
    their product 2.3); the parts that grow with t are at most 2 rate t.
    _ROUNDING = 32 u covers each, and its excess over C's, at least 6 u |C|,
    covers Pdot's own rounding, (sqrt(5) + 1) u |C| |Cdot|, and that of |C|^2
    in the kink factors of bounds._Cells; products of two errors are smaller
    than that excess by a factor of about u (1 + rate t).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cells = rates[:, rows]
        rate, re_plus, re_minus, a_plus, a_minus, a_sum, q = cells[:7]
        rel = _ROUNDING * (1.0 + t1 * rate)
        # The larger exponent gives the sup; + rel covers the rounding of s±.
        e_plus = np.exp(np.maximum(re_plus * t0, re_plus * t1) + rel)
        e_minus = np.exp(np.maximum(re_minus * t0, re_minus * t1) + rel)
        e_sum = e_plus + e_minus
        err_c = rel * a_sum * e_sum
        err_cdot = rel * (q + rate * a_sum) * e_sum
        # The moduli of the two modes and of P's three terms.
        m_plus = (a_plus + rel * a_sum) * e_plus
        m_minus = (a_minus + rel * a_sum) * e_minus
        terms = np.stack((m_plus * m_plus, m_minus * m_minus, 2.0 * m_plus * m_minus))
        slopes = cells[7:10] + 2.0 * rel * rate
        curve = terms * (slopes * slopes)
        out = np.stack((
            a_plus * e_plus + a_minus * e_minus + err_c,
            q * e_sum + err_cdot,
            np.sum(curve, axis=0),
            np.sum(curve * slopes, axis=0),
            err_c,
            err_cdot,
        ))
    return np.where((cells[10] != 0.0) | np.isnan(out), np.inf, out)


def oracle_amplitude(p: ModelParams, t_max: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent numerical solution of the memory-kernel equation for C(t).

    Integrates Cdot(t) = -B(t) with the memory accumulator
    B(t) = int_0^t f(t - s) C(s) ds, advanced through its local form
    Bdot = f(0) C - (lam - i*delta) B (the kernel is a single exponential),
    with classic 4th-order Runge-Kutta stepping.  Never touches the closed
    form, so it serves as an oracle for amplitude_series().

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
    """(Cdot/C, mask of zeros of C); callers replace the entries inside the mask,
    where C may be 0 or so small that the quotient overflows."""
    c, cdot = amplitude_series(p, t)
    singular = np.abs(c) < AMPLITUDE_SINGULAR_TOL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return cdot / c, singular


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


def markov_limit(p: ModelParams) -> float:
    """Long-time Markovian decay rate gamma0 * lam^2 / (lam^2 + delta^2)."""
    return p.gamma0 * p.lam**2 / (p.lam**2 + p.delta**2)
