"""Quantum-speed-limit estimators built on the trace-distance measure.

For this model both the state displacement rho_t - rho_ref and the generator
rhod_t are Hermitian and traceless, so their two singular values coincide.
The three averaged integrals (trace-, Hilbert-Schmidt- and operator-norm
flavored, with the sqrt(n)/n prefactors, n = 2) are then equal exactly, and
a single quadrature serves all three.  Tests cross-check this reduction
against the generic matrix-norm path.

The trace-distance integral, its population-only closed form and the
Bures-angle comparator all integrate |displacement| * |rate| (or |rate|
alone), which has a kink wherever a factor changes sign; Pdot does so where
energy starts or stops flowing back from the reservoir.  All three run on
one cell set, _Cells, for many cells (model point plus window) at once: it
validates each window once, builds one coefficient table, evaluates each
cell's start-point amplitude C(start) once, locates the sign changes of the
one factor (Pdot, P - P_ref) and integrates; an estimator adds only its
integrand and its epilogue.  Two host facts bind it.  A 0-d closed-form call
and a batched one can differ in last bits, so C(start) stays a 0-d call.
numpy's scalar abs and its ufunc np.abs can differ in the last bit, so each
estimator keeps its own P_ref: ree0 * abs(C)**2 on the trace path,
np.abs(C)**2 on the evolved one.

Each estimator has a many-cell form (qsl_ratio_many, qsl_ratio_evolved_many,
bures_comparator_many) that raises the first invalid window, in cell order,
before any work, and returns per cell the result or the engine's
QuadratureError, relabelled to name the cell.  The one-cell forms are the
single-cell case and raise that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .model import (
    MAX_GRID_POINTS, ModelParams, amplitude_bounds, amplitude_cells, amplitude_series,
    coefficient_table, excited_population,
)
from .smatrix import DensityMatrix2

# Ratios below 1 - SPEED_UP_TOL count as genuine speed-up; larger values are
# quadrature noise on the no-speed-up plateau.
SPEED_UP_TOL = 1e-6

_STATIONARY_TOL = 1e-30

# Exclusion thresholds are inflated by this relative margin, which covers the
# rounding of the bounds and of the sums compared against them, and floored
# above the subnormals, where the bounds lose their relative accuracy.
_MARGIN = 2.0**-20
_FLOOR = 1e-290


@dataclass(frozen=True)
class BoundReport:
    """Speed-limit diagnostics for one parameter point and driving window."""

    lambda1: float
    lambda2: float
    lambda_inf: float
    d_measure: float
    tau_qsl: float
    ratio: float
    tau_d: float
    quadrature_err: float
    stationary: bool = False


def raise_first(results: list) -> list:
    """results, after raising the first per-cell exception among them, in cell order."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _check_window(name: str, start: float, tau_d: float) -> None:
    """Raise ValueError if the window [start, start + tau_d] is invalid; name is start's input."""
    if not math.isfinite(tau_d):
        raise ValueError(f"tau_d must be finite, got {tau_d}")
    if not math.isfinite(start):
        raise ValueError(f"{name} must be finite, got {start}")
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    if start < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if start + tau_d == start:
        raise ValueError(f"{name}={start} and tau_d={tau_d} give a window with no width")
    if not math.isfinite(start + tau_d):
        raise ValueError(f"{name}={start} and tau_d={tau_d} give a window whose end is not finite")


class _Cells:
    """The cells (model point, window [start, start + tau_d]) of one estimator call.

    Checks every window, in cell order, and its probe count, builds one
    coefficient table and, given p_ref (C(start) -> P_ref), evaluates each
    cell's start-point amplitude c_ref once, as a 0-d closed-form call, and
    P_ref from it.  scale multiplies P and Pdot (the initial excited
    population).
    """

    def __init__(self, params, starts, tau_d: float, name: str, p_ref=None, scale: float = 1.0):
        for s in starts:
            _check_window(name, s, tau_d)
        self.params, self.a = params, starts
        self.b = [s + tau_d for s in self.a]
        self.n_probe = [quad.probe_count_for_period(p.complex_root.imag, lo, hi)
                        for p, lo, hi in zip(self.params, self.a, self.b)]
        for p, lo, hi, n in zip(self.params, self.a, self.b, self.n_probe):
            if not n <= MAX_GRID_POINTS:
                raise ValueError(
                    f"gamma0={p.gamma0}, delta={p.delta} and window [{lo}, {hi}] ask for "
                    f"{n:.6g} probes, more than an array can hold"
                )
        self.table = coefficient_table(self.params)
        self.scale = scale
        self.c_ref = [amplitude_series(p, s)[0] for p, s in zip(self.params, self.a) if p_ref]
        self.p_ref = [p_ref(c) for c in self.c_ref]
        self._p_ref_col = np.array(self.p_ref, dtype=float)[:, None] if p_ref else None

    def terms(self, rows: np.ndarray, t: np.ndarray):
        """C, Cdot and the kink factors of cells rows at nodes t: Pdot, and P - P_ref if set."""
        c, cdot = amplitude_cells(self.table, rows, t)
        # population_rate and excited_population, scaled.
        pdot = self.scale * 2.0 * (np.conj(c) * cdot).real
        if self._p_ref_col is None:
            return c, cdot, pdot[None]
        return c, cdot, np.stack((pdot, self.scale * np.abs(c) ** 2 - self._p_ref_col[rows]))

    def thresholds(self, rows: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Per factor of terms and interval [t0[i], t1[i]] of cell rows[i], the exclusion threshold.

        Where |f(t0)| + |f(t1)| exceeds it, with f as terms computes it, f
        computes to neither zero nor both signs anywhere in [t0, t1]: a point
        where |f| <= err would bound that sum by slope * h + 4 * err
        (Lipschitz exclusion), with slope bounding |f'|, h = t1 - t0 and err
        the rounding error of f there.  |Pddot| <= 2 (|Cdot|^2 + |C| |Cddot|)
        and |(P - P_ref)'| = |Pdot| <= 2 |C| |Cdot|, times scale.
        """
        c, cdot, cddot, err_c, err_cdot = amplitude_bounds(self.table, rows, t0, t1)
        # Bounds on |C| and |Cdot| as computed; they cover the products' own rounding.
        c_hat, cdot_hat = c + err_c, cdot + err_cdot
        s = self.scale
        # Infinite bounds (d = 0) give NaN thresholds, which exclude nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            slope = [2.0 * s * (cdot * cdot + c * cddot)]
            err = [2.0 * s * (c_hat * cdot_hat - c * cdot)]
            if self._p_ref_col is not None:
                slope.append(2.0 * s * c * cdot)
                # P_ref is one computed constant; only the subtraction rounds it.
                err.append(s * (c_hat * c_hat - c * c)
                           + 2.0**-52 * np.abs(self._p_ref_col[rows, 0]))
            bound = np.array(slope) * (t1 - t0) + 4.0 * np.array(err)
            return bound * (1.0 + _MARGIN) + _FLOOR

    def integrate(self, integrand, spec: quad.QuadratureSpec | None, epilogue) -> list:
        """Per cell j, epilogue(j, value, err) of the adaptive integral of integrand over
        its window, split at kinks, or the engine's QuadratureError for that window.

        integrand(rows, t) is a product of absolute values of the factors
        terms returns, so it has a kink wherever one of them changes sign.
        Their sign changes are found with the probes that thresholds cannot
        exclude.  A failed cell's error is relabelled in place to name the
        model point and the window, so it pickles back whole.
        """
        root_win, roots = quad.find_sign_changes_many(
            lambda rows, t: self.terms(rows, t)[2], self.a, self.b, self.n_probe,
            bound=self.thresholds)
        results = quad.integrate_many(integrand, self.a, self.b, root_win, roots,
                                      spec or quad.QuadratureSpec())
        for j, (p, r) in enumerate(zip(self.params, results)):
            if isinstance(r, quad.QuadratureError):
                r.args = (f"speed-limit integral failed for gamma0={p.gamma0}, delta={p.delta}, "
                          f"window [{self.a[j]}, {self.b[j]}]: {r}",)
            else:
                results[j] = epilogue(j, *r)
        return results


def lambda_integrals(
    p: ModelParams,
    rho0: DensityMatrix2,
    tau_start: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> tuple[float, float, float]:
    """Averaged displacement-times-generator integrals over [tau_start, tau_start + tau_d].

    Returns the trace-, Hilbert-Schmidt- and operator-norm versions (the
    latter two carry their sqrt(n) and n prefactors, n = 2).  rho0 is the
    global initial state; the reference state is the trajectory point at
    tau_start.
    """
    cells, integrand, _ = _lambda_cores([p], rho0, tau_start, tau_d)
    [value] = raise_first(cells.integrate(integrand, spec, lambda j, v, err: 2.0 * v / tau_d))
    return value, value, value


def _lambda_cores(params: list[ModelParams], rho0: DensityMatrix2, tau_start: float,
                  tau_d: float):
    """The cells; the integrand, whose window integral I gives every averaged integral as
    2 * I / tau_d (1, sqrt(2)*sqrt(2) and 2x the operator-norm integrand); and the
    displacement (P - P_ref, coherence - its reference); both of cells rows at nodes t."""
    ree0 = rho0.excited_population
    coh0 = rho0.coherence
    cells = _Cells(params, [tau_start] * len(params), tau_d, "tau_start",
                   p_ref=lambda c: ree0 * abs(c) ** 2, scale=ree0)
    coh_ref = np.array([coh0 * complex(c) for c in cells.c_ref], dtype=complex)

    def integrand(rows, t):
        c, cdot, (pdot, disp_pop) = cells.terms(rows, t)
        disp = 2.0 * np.sqrt(disp_pop**2 + np.abs(coh0 * c - coh_ref[rows, None]) ** 2)
        rate = np.sqrt(pdot**2 + np.abs(coh0 * cdot) ** 2)
        return disp * rate

    def displacement(rows, t):
        # disp_pop is real, so stacking it with the complex coherence loses nothing.
        c, _, (_, disp_pop) = cells.terms(rows, t)
        return np.stack((disp_pop, coh0 * c - coh_ref[rows, None]))

    return cells, integrand, displacement


def qsl_ratio(
    p: ModelParams,
    rho0: DensityMatrix2,
    tau_d: float,
    tau_start: float = 0.0,
    spec: quad.QuadratureSpec | None = None,
) -> BoundReport:
    """Speed-limit report for the window [tau_start, tau_start + tau_d].

    ratio = 2|1 - D| * max_p{1/Lambda_p} / tau_d, with D the trace-distance
    measure between the window's end state and its reference state.
    Stationary trajectories (all integrals zero) are reported with ratio 1
    and the stationary flag set, matching the no-speed-up semantics.
    """
    return raise_first(qsl_ratio_many([p], rho0, tau_d, tau_start, spec))[0]


def qsl_ratio_many(
    params: list[ModelParams],
    rho0: DensityMatrix2,
    tau_d: float,
    tau_start: float = 0.0,
    spec: quad.QuadratureSpec | None = None,
) -> list:
    """qsl_ratio for every model point in params; a failed cell's entry is its error."""
    cells, integrand, displacement = _lambda_cores(params, rho0, tau_start, tau_d)
    if params:
        end = np.full((len(params), 1), tau_start + tau_d)
        disp = quad.evaluate(displacement, np.arange(len(params)), end)[:, :, 0]

    def report(j, value, err):
        lam_val = 2.0 * value / tau_d
        disp_norm = 2.0 * math.sqrt(float(disp[0, j].real) ** 2 + abs(complex(disp[1, j])) ** 2)
        d_measure = 1.0 - 0.25 * disp_norm**2
        stationary = lam_val < _STATIONARY_TOL
        if stationary:
            # ratio = tau_d / tau_d is exactly 1.
            lam_val, tau_qsl = 0.0, tau_d
        else:
            tau_qsl = 2.0 * abs(1.0 - d_measure) / lam_val
        return BoundReport(
            lambda1=lam_val,
            lambda2=lam_val,
            lambda_inf=lam_val,
            d_measure=d_measure,
            tau_qsl=tau_qsl,
            ratio=tau_qsl / tau_d,
            tau_d=tau_d,
            quadrature_err=err,
            stationary=stationary,
        )

    return cells.integrate(integrand, spec, report)


def qsl_ratio_evolved(
    p: ModelParams,
    tau: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> float:
    """Population closed form of the ratio for the excited-state trajectory.

    (P_{tau+tau_d} - P_tau)^2 / (2 * int_tau^{tau+tau_d} |(P_t - P_tau) Pdot_t| dt);
    exactly 1 for windows where the population is monotone.
    """
    return raise_first(qsl_ratio_evolved_many([p], [tau], tau_d, spec))[0]


def qsl_ratio_evolved_many(
    params: list[ModelParams],
    taus: list[float],
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> list:
    """qsl_ratio_evolved for cells (params[i], taus[i]); a failed cell's entry is its error."""
    cells = _Cells(params, taus, tau_d, "tau", p_ref=lambda c: float(np.abs(c) ** 2))

    def integrand(rows, t):
        pdot, pdisp = cells.terms(rows, t)[2]
        return np.abs(pdisp * pdot)

    def ratio(j, value, err):
        den = 2.0 * value
        if den < _STATIONARY_TOL:
            return 1.0
        return (excited_population(cells.params[j], cells.b[j]) - cells.p_ref[j]) ** 2 / den

    return cells.integrate(integrand, spec, ratio)


def bures_comparator(
    p: ModelParams,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> float:
    """Bures-angle speed-limit ratio for decay from the excited state.

    With B = arccos(sqrt(P_{tau_d})) the bound reads
    tau >= sin^2(B) / Lambda_tilde, Lambda_tilde = (1/tau_d) int ||rhod_t||_inf dt.

    The operator norm is the sharpest of the three norms and the published
    form of the Bures-angle bound.  Using the trace-distance integrals'
    sqrt(n)/n prefactors instead, under which the three norms coincide for
    this model, doubles Lambda_tilde and so only halves the ratio.
    """
    return raise_first(bures_comparator_many([p], tau_d, spec))[0]


def bures_comparator_many(
    params: list[ModelParams], tau_d: float, spec: quad.QuadratureSpec | None = None
) -> list:
    """bures_comparator for every model point in params; a failed cell's entry is its error."""
    cells = _Cells(params, [0.0] * len(params), tau_d, "tau_start")

    def ratio(j, value, err):
        if value < _STATIONARY_TOL:
            return 1.0
        return (1.0 - excited_population(cells.params[j], tau_d)) / value

    # For the excited trajectory rhod is diagonal, so ||rhod||_inf = |Pdot|.
    return cells.integrate(lambda rows, t: np.abs(cells.terms(rows, t)[2]), spec, ratio)
